package metrics

import (
	"fmt"
	"runtime"
	rtm "runtime/metrics"
	"time"
)

// This file is the resource-accounting primitive layer: exact CPU-time
// reads (per OS thread where the platform supports it, per process
// otherwise), the process RSS high-water mark, and paired mark/delta
// snapshots that attribute CPU, GC cycles and heap allocation to one task.
// Sweep workers pin their OS thread with PinThread and bracket each task
// with Mark/Since on the handle, so a task's recorded CPU is the thread's
// rusage delta — robust to host load in a way wall time never is. Thread
// CPU is readable only through that handle: an unpinned goroutine would
// read whichever thread it happens to run on.

// PinnedThread is the calling goroutine locked to its OS thread. It is the
// only way to read per-thread CPU time; obtain one with PinThread and
// release it with Unpin on the same goroutine.
type PinnedThread struct{ pinned bool }

// PinThread locks the calling goroutine to its OS thread
// (runtime.LockOSThread) and returns the handle per-thread CPU reads go
// through.
func PinThread() *PinnedThread {
	runtime.LockOSThread()
	return &PinnedThread{pinned: true}
}

// Unpin releases the thread; the handle must not be used afterwards.
func (t *PinnedThread) Unpin() {
	t.pinned = false
	runtime.UnlockOSThread()
}

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
// with PinnedThread.Mark before the work and call Since after it.
type UsageMark struct {
	cpu    int64
	gc     uint64
	allocs uint64
}

// Mark snapshots the pinned thread's CPU time and the process GC and
// allocation counters. Call Since before Unpin. Mark on a handle that
// PinThread did not produce, or that was unpinned, panics.
func (t *PinnedThread) Mark() UsageMark {
	if t == nil || !t.pinned {
		panic("metrics: Mark on an unpinned thread")
	}
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
// negative CPU delta (Since ran after Unpin, on another thread) clamps to
// zero rather than reporting another thread's time.
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

// RunStart marks the start of a driver run: the wall clock and the
// process CPU time read at the same moment, so the CPU/wall ratio
// FormatResources prints covers one interval.
type RunStart struct {
	wall time.Time
	cpu  int64
}

// StartRun marks the start of a run for FormatResources.
func StartRun() RunStart { return RunStart{wall: time.Now(), cpu: processCPUNanos()} }

// Elapsed returns the wall time and the whole-process CPU time since the
// mark.
func (s RunStart) Elapsed() (wall, cpu time.Duration) {
	return time.Since(s.wall), time.Duration(processCPUNanos() - s.cpu)
}

// FormatResources renders the one-line end-of-run resource summary the
// driver commands print to stderr: wall time and process CPU time since
// start with their ratio, the RSS high-water mark, and GC cycles.
func FormatResources(start RunStart) string {
	wall, cpu := start.Elapsed()
	ratio := 0.0
	if wall > 0 {
		ratio = float64(cpu) / float64(wall)
	}
	return fmt.Sprintf("resources: wall %v, cpu %v (%.2fx), max rss %.1f MB, %d gc cycles",
		wall.Round(time.Millisecond), cpu.Round(time.Millisecond), ratio,
		float64(maxRSSKB())/1024, GCCycleCount())
}
