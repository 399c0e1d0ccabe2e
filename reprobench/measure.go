package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtm "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU returns the process's user+system CPU time from rusage. It
// counts every thread, including the garbage collector's, which is why
// the benchmark uses it rather than any per-span accounting.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocBytes returns the cumulative bytes allocated on the Go heap.
func heapAllocBytes() uint64 {
	s := []rtm.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtm.Read(s)
	return s[0].Value.Uint64()
}

// peakRSS tracks the resident-set high-water mark of one phase. Linux
// resets VmHWM when "5" is written to /proc/self/clear_refs; where that is
// refused, the process-lifetime maximum from rusage stands in.
type peakRSS struct{ reset bool }

func startPeakRSS() peakRSS {
	// Return freed heap first, so the phase starts from its live data and
	// not from garbage an earlier phase left behind.
	debug.FreeOSMemory()
	return peakRSS{reset: os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil}
}

// MB returns the high-water mark since startPeakRSS, in MiB.
func (p peakRSS) MB() float64 {
	if p.reset {
		if kb, ok := statusKB("VmHWM:"); ok {
			return float64(kb) / 1024
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero Maxrss on failure
	return float64(ru.Maxrss) / 1024
}

// statusKB reads one kB-valued field of /proc/self/status.
func statusKB(field string) (int64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

// gcStats returns the completed GC cycles and the total stop-the-world
// pause time so far.
func gcStats() (cycles uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(math.Ceil(q*float64(len(sorted))))-1]
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceRev identifies the measured program. MG_REV wins when set (the
// label the repository's other tools use); otherwise it is a digest of
// the module's Go sources and go.mod, since a benchmark checkout need not
// be a git repository.
func sourceRev() string {
	if rev := os.Getenv("MG_REV"); rev != "" {
		return rev
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == benchDir) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && path != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}
