package main

import (
	"io"
	"path/filepath"
	"runtime"
	"strings"
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

// TestCheckFlags: flag values no sweep can run are rejected up front, each
// with an error naming the flag, and valid values pass.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name      string
		input     string
		only      []string
		workers   int
		intervals int64
		flag      string // "" = valid
	}{
		{"valid", "small", []string{"comm.crc32", "media.adpcm_enc"}, 0, 0, ""},
		{"defaults", "large", nil, 2, 500, ""},
		{"unknown -only workload", "small", []string{"comm.crc32", "nosuch"}, 0, 0, "-only"},
		{"unknown -input", "bogus", nil, 0, 0, "-input"},
		{"negative -workers", "small", nil, -1, 0, "-workers"},
		{"negative -intervals", "small", nil, 0, -1, "-intervals"},
	} {
		err := core.CheckFlags(c.input, c.only, c.workers, c.intervals)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.flag != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.flag != "" && !strings.HasPrefix(err.Error(), c.flag):
			t.Errorf("%s: error %q does not name %s", c.name, err, c.flag)
		}
	}
}
