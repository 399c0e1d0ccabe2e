package core

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/workload"
)

// TestTaskKeyGolden pins the cache/ledger identity of two series points.
// Run ledgers persist these keys and the reproduction benchmark checks them
// against the result cache, so a refactor that changes any fingerprinted
// field (or the encoding) must show up here as a deliberate golden update.
func TestTaskKeyGolden(t *testing.T) {
	b := &Bench{Workload: workload.Find("comm.crc32"), Input: "small"}
	if b.Workload == nil {
		t.Fatal("comm.crc32 not in the suite")
	}
	red := pipeline.Reduced()
	cases := []struct {
		name string
		got  string
		want string
	}{
		{"singleton", string(TaskKey(b, nil, red, "", red, nil)), "380dfae6235020dde1d5d72eb12583c65266777f3a2bd257a07924f4db2b53cd"},
		{"slack-profile", string(TaskKey(b, selector.SlackProfile(), red, "", red, nil)), "952cbf45a6b57d1ad1ff563f4c5db078b41b3df853cd9fdb6ddce1c2121a4be5"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s key = %s, want %s", c.name, c.got, c.want)
		}
	}
}
