package metrics

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// burnCPU spins on this goroutine's thread until roughly the given wall
// time has passed, returning a value so the loop cannot be optimized away.
func burnCPU(d time.Duration) uint64 {
	var x uint64 = 1
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			x = x*1664525 + 1013904223
		}
	}
	return x
}

// TestThreadCPUNanos checks the pinned-thread reading actually advances
// while the thread burns CPU. Linux-only: other platforms stub to 0.
func TestThreadCPUNanos(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("RUSAGE_THREAD is linux-only; the stub returns 0")
	}
	pin := PinThread()
	defer pin.Unpin()
	m := pin.Mark()
	_ = burnCPU(50 * time.Millisecond)
	if u := m.Since(); u.CPUNanos <= 0 {
		t.Errorf("thread CPU did not advance across a busy loop: %d", u.CPUNanos)
	}
}

// TestMarkUsage brackets a busy, allocating region with Mark/Since on a
// pinned-thread handle and checks the deltas are sane.
func TestMarkUsage(t *testing.T) {
	pin := PinThread()
	defer pin.Unpin()
	m := pin.Mark()
	_ = burnCPU(50 * time.Millisecond)
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 16<<10))
	}
	runtime.KeepAlive(sink)
	u := m.Since()
	if u.CPUNanos < 0 {
		t.Errorf("negative CPU delta: %d", u.CPUNanos)
	}
	if runtime.GOOS == "linux" && u.CPUNanos == 0 {
		t.Errorf("no CPU measured across a 50ms busy loop")
	}
	// The allocator's accounting can trail the final allocation slightly;
	// half the nominal total is ample to prove the delta is real.
	if u.AllocBytes < 32*(16<<10) {
		t.Errorf("allocation delta %d, want at least %d", u.AllocBytes, 32*(16<<10))
	}
	if runtime.GOOS == "linux" && u.MaxRSSKB <= 0 {
		t.Errorf("max RSS not measured: %d", u.MaxRSSKB)
	}
	if u.GCCycles < 0 {
		t.Errorf("negative GC cycle delta: %d", u.GCCycles)
	}
}

// TestFormatResources pins the one-line resource summary's shape: the
// stderr line every driver prints at exit.
func TestFormatResources(t *testing.T) {
	line := FormatResources(StartRun())
	for _, want := range []string{"resources: wall", "cpu ", "max rss", "gc cycles"} {
		if !strings.Contains(line, want) {
			t.Errorf("resource summary missing %q: %s", want, line)
		}
	}
	if strings.ContainsAny(line, "\n") {
		t.Errorf("resource summary is not one line: %q", line)
	}
}

// TestFormatResourcesIdleRatio: the CPU/wall ratio covers the interval
// since StartRun only. An idle 50 ms window must report a ratio below 1,
// however much CPU the process spent before it (the test binary's start-up
// and earlier tests).
func TestFormatResourcesIdleRatio(t *testing.T) {
	start := StartRun()
	time.Sleep(50 * time.Millisecond)
	line := FormatResources(start)
	_, after, ok := strings.Cut(line, "(")
	var ratio float64
	if !ok {
		t.Fatalf("no ratio in %q", line)
	}
	if _, err := fmt.Sscanf(after, "%fx)", &ratio); err != nil {
		t.Fatalf("parse ratio in %q: %v", line, err)
	}
	if ratio >= 1 {
		t.Errorf("idle window ratio %.2f, want below 1: %s", ratio, line)
	}
}
