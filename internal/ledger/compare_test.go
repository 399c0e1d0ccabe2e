package ledger

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// history builds a two-rev history: three series points recorded at revA,
// then at revB with the given per-point IPC scale factors.
func history(scaleB map[string]float64) []Record {
	host := Host{Hostname: "h", CPU: "c", OS: "linux", Arch: "amd64"}
	var recs []Record
	for _, rev := range []string{"A", "B"} {
		for _, w := range []string{"w1", "w2", "w3"} {
			ipc := 1.5
			wall := 100.0
			if rev == "B" {
				if s, ok := scaleB[w]; ok {
					ipc *= s
				}
			}
			recs = append(recs, Record{
				Rev: rev, RunID: "run-" + rev, Tool: "mgreport", Workload: w,
				Series: "Slack-Profile", Input: "small", Cycles: 1000,
				IPC: ipc, WallMS: wall, Cache: "miss", Host: host,
			})
		}
	}
	return recs
}

// TestGateFlagsInjectedRegression is the acceptance scenario: a 20% IPC
// regression injected between two recorded revs must be flagged, while the
// untouched points pass.
func TestGateFlagsInjectedRegression(t *testing.T) {
	recs := history(map[string]float64{"w2": 0.8}) // -20% IPC on w2
	deltas := Compare(recs, "A", "B")
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3", len(deltas))
	}
	fails := Gate(deltas, 0.05, 0, 0)
	if len(fails) != 1 || !strings.Contains(fails[0], "w2") || !strings.Contains(fails[0], "-20.0%") {
		t.Fatalf("gate: %v, want exactly the w2 -20%% IPC regression", fails)
	}
	// A looser tolerance than the injected drop passes.
	if fails := Gate(deltas, 0.25, 0, 0); len(fails) != 0 {
		t.Fatalf("gate at 25%% tolerance: %v, want clean", fails)
	}
}

// TestGateSelfCompareClean mirrors the ledger-smoke CI leg: a rev compared
// against itself must gate clean at any tolerance.
func TestGateSelfCompareClean(t *testing.T) {
	recs := history(nil)
	deltas := Compare(recs, "A", "A")
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3", len(deltas))
	}
	for _, d := range deltas {
		if d.IPCPct != 0 || d.WallPct != 0 {
			t.Fatalf("self-compare nonzero delta: %+v", d)
		}
	}
	if fails := Gate(deltas, 0.0001, 0.0001, 0); len(fails) != 0 {
		t.Fatalf("self-compare gate: %v, want clean", fails)
	}
}

// TestCompareLatestWins re-records one point at the same rev: the newer
// record must supersede, not mix.
func TestCompareLatestWins(t *testing.T) {
	recs := history(nil)
	fixed := recs[0] // w1 @ A
	fixed.IPC = 3.0
	recs = append(recs, fixed)
	deltas := Compare(recs, "A", "B")
	for _, d := range deltas {
		if d.Workload == "w1" {
			if d.A.IPC != 3.0 {
				t.Fatalf("latest record did not win: %+v", d.A)
			}
			if d.IPCPct > -0.4 {
				t.Fatalf("delta not computed against latest: %+v", d)
			}
		}
	}
}

// TestGateWallTime covers the wall-time leg: growth beyond tolerance on
// same-host uncached records fails; the same growth on a cache hit or a
// cross-host pair carries no signal and passes.
func TestGateWallTime(t *testing.T) {
	recs := history(nil)
	for i := range recs {
		if recs[i].Rev == "B" {
			recs[i].WallMS = 200 // +100%
		}
	}
	deltas := Compare(recs, "A", "B")
	if fails := Gate(deltas, 0.05, 0.5, 0); len(fails) != 3 {
		t.Fatalf("wall gate: %d failures, want 3: %v", len(fails), fails)
	}
	// Wall gate off: clean.
	if fails := Gate(deltas, 0.05, 0, 0); len(fails) != 0 {
		t.Fatalf("wall gate off: %v", fails)
	}
	// Cache hits answered in microseconds must not trip the wall gate.
	for i := range recs {
		if recs[i].Rev == "B" {
			recs[i].Cache = "hit"
		}
	}
	if fails := Gate(Compare(recs, "A", "B"), 0.05, 0.5, 0); len(fails) != 0 {
		t.Fatalf("cache-hit wall gate: %v, want clean", fails)
	}
	// Cross-host wall deltas measure hardware, not code.
	for i := range recs {
		if recs[i].Rev == "B" {
			recs[i].Cache = "miss"
			recs[i].Host.Hostname = "other"
		}
	}
	deltas = Compare(recs, "A", "B")
	if fails := Gate(deltas, 0.05, 0.5, 0); len(fails) != 0 {
		t.Fatalf("cross-host wall gate: %v, want clean", fails)
	}
	for _, d := range deltas {
		if !d.CrossHost {
			t.Fatalf("cross-host pair not flagged: %+v", d)
		}
	}
}

// TestGateCPUTime covers the CPU-time leg: a 20% CPU growth must trip
// -gate-cpu on same-host AND cross-host pairs (CPU time is robust to host
// identity in a way wall time is not), while records without CPU
// accounting (old ledgers) and cache hits carry no signal.
func TestGateCPUTime(t *testing.T) {
	recs := history(nil)
	for i := range recs {
		recs[i].CPUMS = 100
		if recs[i].Rev == "B" {
			recs[i].CPUMS = 120 // +20%
		}
	}
	deltas := Compare(recs, "A", "B")
	for _, d := range deltas {
		if d.CPUPct < 0.199 || d.CPUPct > 0.201 {
			t.Fatalf("CPUPct = %v, want 0.20: %+v", d.CPUPct, d)
		}
	}
	// Same-host: 20% growth beyond a 5% tolerance fails all three points.
	if fails := Gate(deltas, 0.05, 0, 0.05); len(fails) != 3 {
		t.Fatalf("cpu gate same-host: %d failures, want 3: %v", len(fails), fails)
	}
	// Tolerance above the growth passes.
	if fails := Gate(deltas, 0.05, 0, 0.25); len(fails) != 0 {
		t.Fatalf("cpu gate at 25%%: %v, want clean", fails)
	}
	// Cross-host pairs still gate — the acceptance requirement.
	for i := range recs {
		if recs[i].Rev == "B" {
			recs[i].Host.Hostname = "other"
		}
	}
	deltas = Compare(recs, "A", "B")
	if fails := Gate(deltas, 0.05, 0, 0.05); len(fails) != 3 {
		t.Fatalf("cpu gate cross-host: %d failures, want 3: %v", len(fails), fails)
	}
	// Cache hits answered in microseconds carry no CPU signal.
	for i := range recs {
		if recs[i].Rev == "B" {
			recs[i].Cache = "hit"
		}
	}
	if fails := Gate(Compare(recs, "A", "B"), 0.05, 0, 0.05); len(fails) != 0 {
		t.Fatalf("cache-hit cpu gate: %v, want clean", fails)
	}
}

// TestGateCPUSkipsUnaccounted pairs a record predating CPU accounting
// (CPUMS == 0) with a new one: no CPU delta, no gate failure, and the
// rendered table shows the dash placeholder.
func TestGateCPUSkipsUnaccounted(t *testing.T) {
	recs := history(nil)
	for i := range recs {
		if recs[i].Rev == "B" {
			recs[i].CPUMS = 500 // A side has no CPU field
		}
	}
	deltas := Compare(recs, "A", "B")
	for _, d := range deltas {
		if d.CPUPct != 0 {
			t.Fatalf("CPUPct = %v on an unaccounted pair, want 0", d.CPUPct)
		}
	}
	if fails := Gate(deltas, 0.05, 0, 0.01); len(fails) != 0 {
		t.Fatalf("unaccounted cpu gate: %v, want clean", fails)
	}
	var sb strings.Builder
	if err := WriteCompareText(&sb, "A", "B", deltas); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "–") || !strings.Contains(out, "Δcpu%") {
		t.Errorf("compare table missing cpu placeholder column:\n%s", out)
	}
}

// TestCompareSkipsNonTiming ensures selection-only records (Cycles == 0)
// and errored tasks never enter the delta table.
func TestCompareSkipsNonTiming(t *testing.T) {
	recs := history(nil)
	recs = append(recs,
		Record{Rev: "A", Workload: "w9", Series: "s", Input: "small", Coverage: 0.4},
		Record{Rev: "B", Workload: "w9", Series: "s", Input: "small", Coverage: 0.4},
		Record{Rev: "A", Workload: "w8", Series: "s", Input: "small", Cycles: 10, IPC: 1, Error: "boom"},
		Record{Rev: "B", Workload: "w8", Series: "s", Input: "small", Cycles: 10, IPC: 1, Error: "boom"},
	)
	if deltas := Compare(recs, "A", "B"); len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3 (non-timing and errored excluded)", len(deltas))
	}
}

// legacyEstimateLine is a ledger line written while sampled simulation
// existed: CRC-valid, but its timing is an estimate ("estimate":true).
const legacyEstimateLine = `v1 dc7cd060 {"time":"2026-08-08T12:27:47Z","rev":"b0eb6f7","run":"1754656067000000000-4242","tool":"mgsim","workload":"comm.crc32","series":"reduced-3way/Slack-Profile","input":"small","key":"952cbf45a6b57d1a","cache":"run","estimate":true,"sample":"rep/i1000/w1000/k8","wall_ms":12.5,"cycles":20000,"instrs":30000,"uops":25000,"ipc":1.5,"upc":1.25,"host":{"hostname":"build-01","cpu":"Intel(R) Xeon(R) Processor","gomaxprocs":2,"go":"go1.24.0","os":"linux","arch":"amd64"}}`

// TestLegacyEstimateRecordsSkipped reads a ledger holding an old estimate
// record next to an exact record of the same point at a later rev: the
// estimate must count as skipped, never reach Compare, and so never be
// gated against the exact run (a 33% IPC drop here).
func TestLegacyEstimateRecordsSkipped(t *testing.T) {
	var want uint32
	body := legacyEstimateLine[len(linePrefix)+9:]
	if _, err := fmt.Sscanf(legacyEstimateLine[len(linePrefix):len(linePrefix)+8], "%08x", &want); err != nil ||
		crc32.Checksum([]byte(body), castagnoli) != want {
		t.Fatal("fixture line must be CRC-valid so only the estimate flag rejects it")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte(legacyEstimateLine+"\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, dir, "next")
	exact := rec("comm.crc32", 1.0)
	exact.Series = "reduced-3way/Slack-Profile"
	if err := l.Append(exact); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 || len(recs) != 1 || recs[0].Rev != "next" {
		t.Fatalf("read %d records (skipped %d), want only the exact record with 1 skipped", len(recs), skipped)
	}
	deltas := Compare(recs, "b0eb6f7", "next")
	if len(deltas) != 0 || len(Gate(deltas, 0.05, 0, 0)) != 0 {
		t.Fatalf("estimate record paired with an exact run: %+v", deltas)
	}
}

func TestWriteCompareText(t *testing.T) {
	recs := history(map[string]float64{"w2": 0.8})
	var sb strings.Builder
	if err := WriteCompareText(&sb, "A", "B", Compare(recs, "A", "B")); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"w1", "w2", "w3", "-20.0%", "Slack-Profile"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare table missing %q:\n%s", want, out)
		}
	}
	var empty strings.Builder
	if err := WriteCompareText(&empty, "A", "X", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no common timing records") {
		t.Errorf("empty compare: %q", empty.String())
	}
}
