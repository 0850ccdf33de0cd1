package main

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faults"
)

func writeSpec(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestExampleTemplateParses(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-example"}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := faults.ParseSpec([]byte(out.String())); err != nil {
		t.Errorf("-example output does not parse as a spec: %v", err)
	}
}

// lastPsi pulls the faulted row's ψ out of the CSV output.
func lastPsi(t *testing.T, csv string) float64 {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n") {
		fields := strings.Split(line, ",")
		if len(fields) < 2 || fields[0] != "faulted" {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("ψ field %q: %v", fields[len(fields)-1], err)
		}
		return v
	}
	t.Fatalf("no faulted row in output:\n%s", csv)
	return 0
}

// The acceptance scenario: the same seed and a nonzero straggler+drop
// plan emit byte-identical output across invocations and show ψ < 1.
func TestScanDeterministicAndDegraded(t *testing.T) {
	args := []string{"-intensity", "0.6", "-seed", "9", "-alg", "ge", "-p", "4", "-n", "120", "-csv"}
	var first, second strings.Builder
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("same invocation produced different output:\n--- first ---\n%s--- second ---\n%s",
			first.String(), second.String())
	}
	if psi := lastPsi(t, first.String()); psi >= 1 || psi <= 0 {
		t.Errorf("ψ = %g under faults, want in (0,1)", psi)
	}
}

func TestScanAllEnginesAgree(t *testing.T) {
	base := []string{"-intensity", "0.5", "-seed", "3", "-alg", "ge", "-p", "4", "-n", "100", "-csv"}
	// The title names the engine; every measured row must agree.
	trim := func(s string) string {
		lines := strings.Split(strings.TrimSpace(s), "\n")
		return strings.Join(lines[1:], "\n")
	}
	var live strings.Builder
	if err := run(append(base, "-engine", "live"), &live); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"des", "symbolic"} {
		var out strings.Builder
		if err := run(append(base, "-engine", engine), &out); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if trim(live.String()) != trim(out.String()) {
			t.Errorf("engines disagree:\n--- live ---\n%s\n--- %s ---\n%s", live.String(), engine, out.String())
		}
	}
}

func TestScanSpecFileWithDrops(t *testing.T) {
	path := writeSpec(t, `{
	  "seed": 5,
	  "stragglerFrac": 0.5, "stragglerFactor": 2.5,
	  "dropProb": 0.5, "retryTimeoutMS": 0.5, "maxRetries": 20
	}`)
	var out strings.Builder
	if err := run([]string{"-spec", path, "-alg", "mm", "-p", "4", "-n", "80", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if psi := lastPsi(t, out.String()); psi >= 1 || psi <= 0 {
		t.Errorf("ψ = %g under heavy faults, want in (0,1)", psi)
	}
	// MM moves all its traffic point-to-point: a 50% drop rate must
	// visibly retransmit.
	var msgs []int
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		f := strings.Split(line, ",")
		if len(f) > 3 && (f[0] == "fault-free" || f[0] == "faulted") {
			m, err := strconv.Atoi(f[3])
			if err != nil {
				t.Fatalf("messages field %q: %v", f[3], err)
			}
			msgs = append(msgs, m)
		}
	}
	if len(msgs) != 2 || msgs[1] <= msgs[0] {
		t.Errorf("lossy run should move more messages than clean run, got %v", msgs)
	}
}

func TestScanCrashReportsOutcome(t *testing.T) {
	path := writeSpec(t, `{"seed": 2, "crashes": [{"rank": 1, "atMS": 5}]}`)
	var out strings.Builder
	if err := run([]string{"-spec", path, "-alg", "ge", "-p", "4", "-n", "100"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "DNF") || !strings.Contains(got, "crashed 1@") {
		t.Errorf("crash outcome not reported:\n%s", got)
	}
}

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// TestScanJSONGolden pins the -json document byte for byte, for the
// plain crash (DNF) and the checkpoint/rollback (-recover) variants,
// and the table of the seeded one-knob scan with recovery.
func TestScanJSONGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"scan_crash.golden.json", []string{"-spec", "testdata/crashplan.json", "-alg", "ge", "-p", "4", "-n", "100", "-json"}},
		{"scan_recovered.golden.json", []string{"-spec", "testdata/crashplan.json", "-alg", "ge", "-p", "4", "-n", "100", "-recover", "-json"}},
		{"intensity_recover.golden", []string{"-intensity", "0.5", "-seed", "7", "-recover"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var out strings.Builder
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("output drifted from %s (rerun with -update to accept):\n--- got ---\n%s--- want ---\n%s",
					path, out.String(), want)
			}
		})
	}
}

// TestScanRecoveredBothEnginesAgree asserts a recovered run reports the
// same table — recovered T, ψ, and the full rollback history notes — on
// the live and the DES transport.
func TestScanRecoveredBothEnginesAgree(t *testing.T) {
	var live, des strings.Builder
	base := []string{"-spec", "testdata/crashplan.json", "-alg", "ge", "-p", "4", "-n", "100", "-recover", "-csv"}
	if err := run(append(base, "-engine", "live"), &live); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-engine", "des"), &des); err != nil {
		t.Fatal(err)
	}
	trim := func(s string) string {
		lines := strings.Split(strings.TrimSpace(s), "\n")
		return strings.Join(lines[1:], "\n")
	}
	if trim(live.String()) != trim(des.String()) {
		t.Errorf("engines disagree on the recovered run:\n--- live ---\n%s\n--- des ---\n%s", live.String(), des.String())
	}
}

func TestScanErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("missing plan accepted")
	}
	if err := run([]string{"-spec", "/does/not/exist.json"}, &out); err == nil {
		t.Error("missing spec file accepted")
	}
	if err := run([]string{"-spec", writeSpec(t, "{bad"), "-p", "4"}, &out); err == nil {
		t.Error("malformed spec accepted")
	}
	if err := run([]string{"-intensity", "2"}, &out); err == nil {
		t.Error("out-of-range intensity accepted")
	}
	if err := run([]string{"-intensity", "0.5", "-spec", writeSpec(t, `{}`)}, &out); err == nil {
		t.Error("conflicting -spec and -intensity accepted")
	}
	if err := run([]string{"-intensity", "0.5", "-alg", "qr", "-p", "4"}, &out); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-intensity", "0.5", "-engine", "quantum", "-p", "4"}, &out); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestListPrintsWorkloads(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "registered workloads") {
		t.Fatalf("-list output missing header:\n%s", got)
	}
	for _, name := range []string{"ge", "mm", "jacobi", "cg"} {
		if !strings.Contains(got, name) {
			t.Errorf("-list output missing workload %q:\n%s", name, got)
		}
	}
}
