package spec

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/faults"
)

var update = flag.Bool("update", false, "rewrite testdata/cachekeys.golden from current output")

// TestCacheKeysGolden pins the content addresses the executor persists:
// the sorted entry names a fresh disk-backed executor writes for one
// spec of each memoized kind. The names are the cache keys, so a change
// here orphans every warm cache directory; only a deliberate change to a
// signature (with its generation bumped) may move them.
func TestCacheKeysGolden(t *testing.T) {
	cases := []struct {
		name string
		rs   RunSpec
	}{
		{"experiments table2 quick", RunSpec{Kind: KindExperiments, Experiments: "table2", Quick: true}},
		{"scalescan ge two-rung ladder", RunSpec{Kind: KindScalescan, Workload: "ge", Ladder: testLadder(t)}},
		{"faultscan ge p4 n100 stragglers", RunSpec{
			Kind: KindFaultscan, Workload: "ge", P: 4, N: 100,
			Faults: &faults.Spec{Seed: 1, StragglerFrac: 0.5, StragglerFactor: 2},
		}},
		{"jobstream symbolic", RunSpec{Kind: KindJobstream, Engine: "symbolic"}},
	}
	var got strings.Builder
	for _, c := range cases {
		dir := t.TempDir()
		runSpec(t, newExecutor(t, ExecutorOptions{Jobs: 2, CacheDir: dir}), c.rs)
		names, err := filepath.Glob(filepath.Join(dir, "*.entry"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(names)
		got.WriteString("# " + c.name + "\n")
		for _, n := range names {
			got.WriteString(filepath.Base(n) + "\n")
		}
	}
	path := filepath.Join("testdata", "cachekeys.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("cache keys drifted from %s (rerun with -update to accept):\n--- got ---\n%s--- want ---\n%s", path, got.String(), want)
	}
}
