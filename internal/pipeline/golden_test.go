package pipeline

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/slack"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden profile digests")

// goldenProfileWorkloads span the profiling paths that matter: plain ALU
// chains (comm.crc32, media.dct8), memory-ordering flushes (intx.heapsort,
// intx.qsort), and RAS and direction mispredicts alongside flushes
// (embed.fib, embed.queens).
var goldenProfileWorkloads = []string{
	"comm.crc32", "media.dct8", "embed.fib", "embed.queens", "intx.heapsort", "intx.qsort",
}

const goldenProfilePath = "testdata/profile_golden.txt"

// TestProfileGolden pins the slack profile itself, not just its agreement
// between schedulers: the SHA-256 of each profile's Save bytes must match
// the committed digest. Regenerate with `go test -run TestProfileGolden
// -update` only for an intended change to what a profile measures.
func TestProfileGolden(t *testing.T) {
	var got []string
	for _, name := range goldenProfileWorkloads {
		w := workload.Find(name)
		if w == nil {
			t.Fatalf("workload %s not found", name)
		}
		p, _, _, err := w.Build("small")
		if err != nil {
			t.Fatal(err)
		}
		res, err := emu.Run(p, emu.Options{CollectTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{Reduced(), Baseline()} {
			acc := slack.NewAccumulator(name, p.NumInstrs())
			if _, err := Run(p, res.Trace, cfg, MGConfig{}, acc); err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.Name, err)
			}
			var buf bytes.Buffer
			if err := acc.Profile().Save(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got = append(got, fmt.Sprintf("%s %s %s", name, cfg.Name, hex.EncodeToString(sum[:])))
		}
	}

	if *updateGolden {
		data := strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(goldenProfilePath, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenProfilePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d digests, test computed %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("profile digest changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
