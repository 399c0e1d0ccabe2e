package metrics

import (
	"fmt"
	rtm "runtime/metrics"
	"time"
)

// This file is the resource-accounting primitive layer: exact CPU-time
// reads (per OS thread where the platform supports it, per process
// otherwise), the process RSS high-water mark, and paired mark/delta
// snapshots that attribute CPU, GC cycles and heap allocation to one task.
// Sweep workers pin their OS thread (runtime.LockOSThread) and bracket
// each task with MarkUsage/Since, so a task's recorded CPU is the thread's
// rusage delta — robust to host load in a way wall time never is.

// ThreadCPUNanos returns the CPU time (user+system) consumed by the
// calling OS thread, in nanoseconds. Exact per-task attribution requires
// the goroutine to be pinned with runtime.LockOSThread; an unpinned caller
// reads whichever thread it happens to run on. On platforms without
// per-thread rusage this falls back to process CPU time.
func ThreadCPUNanos() int64 { return threadCPUNanos() }

// ProcessCPUNanos returns the whole process's consumed CPU time
// (user+system), in nanoseconds; 0 where unavailable.
func ProcessCPUNanos() int64 { return processCPUNanos() }

// MaxRSSKB returns the process resident-set-size high-water mark in KB;
// 0 where unavailable. The value is process-wide and monotone: it
// attributes to a task only in single-task runs.
func MaxRSSKB() int64 { return maxRSSKB() }

// GCCycleCount returns the cumulative number of completed GC cycles.
func GCCycleCount() int64 {
	s := []rtm.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	rtm.Read(s)
	return int64(s[0].Value.Uint64())
}

// Usage is the resource cost attributed to one bracketed region (a sweep
// task, or a whole driver run). CPUNanos is exact when the goroutine was
// pinned to its OS thread for the whole region; GCCycles and AllocBytes
// are process-global deltas (exact under -workers 1, approximate when
// other tasks run concurrently — Go exposes no per-goroutine allocation
// counter). MaxRSSKB is the process high-water mark at region end.
type Usage struct {
	CPUNanos   int64
	GCCycles   int64
	AllocBytes int64
	MaxRSSKB   int64
}

// UsageMark is a snapshot of the counters Usage is computed from; take one
// with MarkUsage before the work and call Since after it.
type UsageMark struct {
	cpu    int64
	gc     uint64
	allocs uint64
}

// MarkUsage snapshots the calling thread's CPU time and the process GC and
// allocation counters. The caller must stay pinned to its OS thread
// (runtime.LockOSThread) until Since, or the CPU delta is meaningless.
func MarkUsage() UsageMark {
	s := []rtm.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtm.Read(s)
	return UsageMark{
		cpu:    threadCPUNanos(),
		gc:     s[0].Value.Uint64(),
		allocs: s[1].Value.Uint64(),
	}
}

// Since returns the resources consumed between the mark and now. A
// negative CPU delta (the goroutine migrated threads because it was not
// pinned) clamps to zero rather than reporting another thread's time.
func (m UsageMark) Since() Usage {
	cpu := threadCPUNanos() - m.cpu
	if cpu < 0 {
		cpu = 0
	}
	s := []rtm.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtm.Read(s)
	return Usage{
		CPUNanos:   cpu,
		GCCycles:   int64(s[0].Value.Uint64() - m.gc),
		AllocBytes: int64(s[1].Value.Uint64() - m.allocs),
		MaxRSSKB:   maxRSSKB(),
	}
}

// FormatResources renders the one-line end-of-run resource summary the
// driver commands print to stderr: wall time, whole-process CPU time with
// the CPU/wall ratio, the RSS high-water mark, and GC cycles.
func FormatResources(wall time.Duration) string {
	cpu := time.Duration(processCPUNanos())
	ratio := 0.0
	if wall > 0 {
		ratio = float64(cpu) / float64(wall)
	}
	return fmt.Sprintf("resources: wall %v, cpu %v (%.2fx), max rss %.1f MB, %d gc cycles",
		wall.Round(time.Millisecond), cpu.Round(time.Millisecond), ratio,
		float64(maxRSSKB())/1024, GCCycleCount())
}
