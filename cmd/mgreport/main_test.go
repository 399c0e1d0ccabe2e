package main

import (
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestAllHonorsWorkers runs -exp all with one worker on a many-P process
// and reads every sweep's manifest: each sweep, Figure 9 included, must
// record the requested worker count and run all its tasks on worker 0.
func TestAllHonorsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	dir := t.TempDir()
	opts := core.Options{Input: "small", Workers: 1, Workloads: []string{"comm.crc32"},
		Obs: &obs.Options{Dir: dir, IntervalEvery: 1 << 40}}
	if err := run(io.Discard, "all", "comm.crc32", false, opts); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 9 {
		t.Fatalf("got %d sweep manifests, want 9 (Figures 1, 3, 6, 7 and 9)", len(paths))
	}
	for _, p := range paths {
		m, err := obs.ReadManifest(p)
		if err != nil {
			t.Fatal(err)
		}
		if m.Workers != 1 {
			t.Errorf("%s: manifest workers %d, want 1", m.Title, m.Workers)
		}
		for _, task := range m.Tasks {
			if task.Worker != 0 {
				t.Errorf("%s: %s/%s ran on worker %d, want 0", m.Title, task.Workload, task.Series, task.Worker)
			}
		}
	}
}
