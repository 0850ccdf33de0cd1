package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func writeLadder(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ladder.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestExampleTemplate(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-example"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"ladder"`) {
		t.Errorf("template wrong:\n%s", out.String())
	}
}

func TestScanWithTemplate(t *testing.T) {
	var tpl strings.Builder
	if err := run([]string{"-example"}, &tpl); err != nil {
		t.Fatal(err)
	}
	path := writeLadder(t, tpl.String())
	for _, alg := range []string{"ge", "mm"} {
		var out strings.Builder
		if err := run([]string{"-ladder", path, "-alg", alg, "-target", "0.2"}, &out); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		got := out.String()
		if !strings.Contains(got, "Scalability chain") || !strings.Contains(got, "ψ(C2,C4)") {
			t.Errorf("%s output wrong:\n%s", alg, got)
		}
	}
}

func TestScanCSV(t *testing.T) {
	var tpl strings.Builder
	if err := run([]string{"-example"}, &tpl); err != nil {
		t.Fatal(err)
	}
	path := writeLadder(t, tpl.String())
	var out strings.Builder
	if err := run([]string{"-ladder", path, "-alg", "mm", "-target", "0.2", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), ",") {
		t.Errorf("CSV output wrong:\n%s", out.String())
	}
}

func TestListPrintsWorkloadsAndExperiments(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, w := range workload.All() {
		if !strings.Contains(got, w.Name()) || !strings.Contains(got, w.About()) {
			t.Errorf("workload %q missing from -list:\n%s", w.Name(), got)
		}
	}
	for _, id := range experiments.IDs() {
		if !strings.Contains(got, id) {
			t.Errorf("experiment %q missing from -list:\n%s", id, got)
		}
	}
}

// TestScanEveryRegisteredWorkload proves the seam: each registry entry is
// scannable with no scalescan-side wiring.
func TestScanEveryRegisteredWorkload(t *testing.T) {
	var tpl strings.Builder
	if err := run([]string{"-example"}, &tpl); err != nil {
		t.Fatal(err)
	}
	path := writeLadder(t, tpl.String())
	for _, w := range workload.All() {
		var out strings.Builder
		if err := run([]string{"-ladder", path, "-workload", w.Name()}, &out); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if !strings.Contains(out.String(), "ψ(C2,C4)") {
			t.Errorf("%s output wrong:\n%s", w.Name(), out.String())
		}
	}
}

func TestScanSymbolicEngineMatchesLive(t *testing.T) {
	// The -engine selector reaches the measured sweeps: the symbolic
	// fast-forward engine must reproduce the default (live) scan byte for
	// byte, since the sweeps' virtual times are bit-identical.
	var tpl strings.Builder
	if err := run([]string{"-example"}, &tpl); err != nil {
		t.Fatal(err)
	}
	path := writeLadder(t, tpl.String())
	var live, sym strings.Builder
	if err := run([]string{"-ladder", path, "-workload", "mm", "-engine", "live"}, &live); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-ladder", path, "-workload", "mm", "-engine", "symbolic"}, &sym); err != nil {
		t.Fatal(err)
	}
	if live.String() != sym.String() {
		t.Errorf("engine outputs differ:\nlive:\n%s\nsymbolic:\n%s", live.String(), sym.String())
	}
}

func TestAsymLadderEveryWorkload(t *testing.T) {
	for _, w := range workload.All() {
		var out strings.Builder
		if err := run([]string{"-workload", w.Name(), "-asym", "100,1000,10000"}, &out); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		got := out.String()
		for _, want := range []string{"Asymptotic isospeed ladder", "10000", "Theorem 1", "Corollary 2"} {
			if !strings.Contains(got, want) {
				t.Errorf("%s output missing %q:\n%s", w.Name(), want, got)
			}
		}
	}
}

func TestAsymLadderHundredThousandRanks(t *testing.T) {
	// A p = 10^5 rung prices in well under a second: the closed-form mode
	// must stay fast enough that the acceptance-scale 10^6 rung (exercised
	// manually and by BenchmarkAsymptoticMillionRankRung) fits its < 5 s
	// budget.
	var out strings.Builder
	if err := run([]string{"-workload", "ge", "-asym", "1000,100000"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "C100000") {
		t.Errorf("p=1e5 rung missing:\n%s", out.String())
	}
}

func TestAsymErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-asym", "100"}, &out); err == nil {
		t.Error("single-rung asym ladder accepted")
	}
	if err := run([]string{"-asym", "100,100"}, &out); err == nil {
		t.Error("non-increasing asym sizes accepted")
	}
	if err := run([]string{"-asym", "100,abc"}, &out); err == nil {
		t.Error("non-numeric asym size accepted")
	}
	if err := run([]string{"-asym", "1,4"}, &out); err == nil {
		t.Error("p=1 rung accepted")
	}
	if err := run([]string{"-asym", "100,250.5"}, &out); err == nil {
		t.Error("fractional size accepted")
	}
	var tpl strings.Builder
	if err := run([]string{"-example"}, &tpl); err != nil {
		t.Fatal(err)
	}
	path := writeLadder(t, tpl.String())
	if err := run([]string{"-ladder", path, "-asym", "100,1000"}, &out); err == nil {
		t.Error("-ladder with -asym accepted")
	}
	if err := run([]string{"-ladder", path, "-engine", "bogus"}, &out); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestScanWithSpeedTable(t *testing.T) {
	var tpl strings.Builder
	if err := run([]string{"-example"}, &tpl); err != nil {
		t.Fatal(err)
	}
	path := writeLadder(t, tpl.String())
	speeds := filepath.Join(t.TempDir(), "speeds.json")
	// Class-wide override: the template's "fast" nodes measured slower.
	if err := os.WriteFile(speeds, []byte(`{"speeds": {"fast": 70, "n1": 35}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-ladder", path, "-speeds", speeds, "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	// The C2 rung is one fast (70) + n1 (35): marked speed 105.
	if !strings.Contains(out.String(), "C2,2,105.0") {
		t.Errorf("overridden speeds not applied:\n%s", out.String())
	}
	dangling := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(dangling, []byte(`{"speeds": {"nosuch": 10}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-ladder", path, "-speeds", dangling}, &out); err == nil {
		t.Error("dangling speed-table key accepted")
	}
}

func TestScanErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("missing ladder accepted")
	}
	if err := run([]string{"-ladder", "/does/not/exist.json"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeLadder(t, "{not json")
	if err := run([]string{"-ladder", bad}, &out); err == nil {
		t.Error("bad JSON accepted")
	}
	short := writeLadder(t, `{"ladder":[{"name":"only","nodes":[{"name":"a","class":"x","speedMflops":10,"memMB":64}]}]}`)
	if err := run([]string{"-ladder", short}, &out); err == nil {
		t.Error("single-rung ladder accepted")
	}
	tpl := &strings.Builder{}
	if err := run([]string{"-example"}, tpl); err != nil {
		t.Fatal(err)
	}
	good := writeLadder(t, tpl.String())
	if err := run([]string{"-ladder", good, "-alg", "qr"}, &out); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-ladder", good, "-workload", "ge", "-alg", "mm"}, &out); err == nil {
		t.Error("conflicting -workload and -alg accepted")
	}
	if err := run([]string{"-ladder", good, "-target", "1.5"}, &out); err == nil {
		t.Error("out-of-range target accepted")
	}
	invalid := writeLadder(t, `{"ladder":[
	  {"name":"a","nodes":[{"name":"x","class":"c","speedMflops":-5,"memMB":64}]},
	  {"name":"b","nodes":[{"name":"y","class":"c","speedMflops":10,"memMB":64}]}]}`)
	if err := run([]string{"-ladder", invalid}, &out); err == nil {
		t.Error("negative speed accepted")
	}
}
