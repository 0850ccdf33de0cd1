package repro

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var linked = flag.Bool("linked", false, "build the CLIs and perfbench and check which functions under internal/ they link")

// linkedAllow names the functions declared in non-test code under
// internal/ that no binary links but that stay on purpose, keyed as
// "<package dir>.<name>" or "<package dir>.<type>.<name>", each with its
// reason. The entries of keptExports and keptMethods stay too.
var linkedAllow = map[string]string{
	// Helpers that only kept oracles and observers reach.
	"internal/linalg.MatVec":                 "residual helper of the kept GE oracle ResidualInf",
	"internal/linalg.VecSub":                 "residual helper of the kept GE oracle ResidualInf",
	"internal/linalg.VecNormInf":             "residual helper of the kept GE oracle ResidualInf",
	"internal/linalg.Matrix.Clone":           "copy the kept oracle SolveGauss works on",
	"internal/linalg.forwardEliminate":       "elimination step of the kept oracles SolveGauss and SolveGaussNoPivot",
	"internal/simnet.PointToPoint":           "probe of the kept §4.5 calibration CalibrateModel",
	"internal/simnet.Calibration.FitSend":    "fit step of the kept §4.5 calibration CalibrateModel",
	"internal/simnet.Calibration.FitBcast":   "fit step of the kept §4.5 calibration CalibrateModel",
	"internal/simnet.Calibration.FitBarrier": "fit step of the kept §4.5 calibration CalibrateModel",
	"internal/numeric.LinearFit":             "least-squares step of the kept §4.5 calibration CalibrateModel",
	"internal/core.Productivity.F":           "productivity of the kept baseline ProductivityPsi",
	"internal/trace.Trace.Makespan":          "time axis of the kept text rendering Gantt",
	"internal/trace.Kind.glyph":              "span glyph of the kept text rendering Gantt",
	"internal/simnet.Wire.Occupy":            "medium occupancy the kept Wire.Transmit charges",
	// Sequential references the workload tests compare against.
	"internal/workload.cgSequential":     "sequential CG reference the CG tests compare against",
	"internal/workload.jacobiSequential": "sequential Jacobi reference the Jacobi and recovery tests compare against",
	"internal/workload.mgSequential":     "sequential multigrid reference the MG tests compare against",
	"internal/workload.spmvSequential":   "sequential SpMV reference the SpMV tests compare against",
	// Observers whose names other types' methods share, so the syntactic
	// scan counts them as used.
	"internal/dist.Assignment.Validate": "consistency check the distribution tests assert on",
	"internal/runner.Signature.String":  "canonical form the signature tests compare",
}

// TestLinkedFunctions is the linker-exact counterpart of
// TestNoUnreferencedExports. It builds the four CLIs and perfbench with
// inlining off (-gcflags=all=-l, so no function vanishes into its
// callers), reads the repro/internal functions go tool nm lists in them,
// and fails on any function declared in non-test code under internal/
// that no binary links, unless keptExports, keptMethods or linkedAllow
// name it. It sees what the syntactic scan cannot: code dead only
// transitively, and code that shares its name with something a program
// uses. It also fails on a linkedAllow entry that a binary links or that
// no longer exists, so the list cannot go stale.
//
// The builds take a few seconds, so the test runs only with -linked
// (scripts/check.sh passes it).
func TestLinkedFunctions(t *testing.T) {
	if !*linked {
		t.Skip("run with -linked")
	}
	bin := t.TempDir()
	build := func(dir string, pkgs ...string) {
		cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, pkgs...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v in %s: %v\n%s", pkgs, dir, err, out)
		}
	}
	build(".", "./cmd/...")
	build("perfbench", ".")

	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("built %d binaries, want the four CLIs and perfbench", len(entries))
	}
	linkedFuncs := map[string]bool{}
	for _, e := range entries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// "<addr> <kind> <name>"; a generic shape's name may hold spaces.
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") && strings.HasPrefix(f[2], "repro/internal/") {
				linkedFuncs[symbolKey(strings.TrimPrefix(f[2], "repro/"))] = true
			}
		}
	}

	declared := declaredFuncs(t)
	var dead []string
	for _, id := range declared {
		if !linkedFuncs[id] && keptExports[id] == "" && keptMethods[id] == "" && linkedAllow[id] == "" {
			dead = append(dead, id)
		}
	}
	for _, id := range dead {
		t.Errorf("%s is declared in non-test code but no binary links it: delete it, move it into a _test.go file, or add it to linkedAllow with a reason", id)
	}
	for id := range linkedAllow {
		switch {
		case !slices.Contains(declared, id):
			t.Errorf("linkedAllow names %s, which is not a declared function", id)
		case linkedFuncs[id]:
			t.Errorf("linkedAllow names %s, which a binary links: drop the entry", id)
		}
	}
}

// symbolKey turns a linker symbol such as "internal/mpi.(*Comm).Send" or
// "internal/runner.DoPersist[go.shape.int]" into the key of the function
// it belongs to: "internal/mpi.Comm.Send", "internal/runner.DoPersist".
// A closure or method value keeps its suffix ("Run.func1", "Send-fm"),
// which names no declaration.
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declaredFuncs lists the functions and methods declared in non-test Go
// files under internal/, keyed like symbolKey, in sorted order. Package
// init functions are left out: the linker keeps every linked package's.
func declaredFuncs(t *testing.T) []string {
	t.Helper()
	var ids []string
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" {
				continue
			}
			id := dir + "." + fn.Name.Name
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				switch g := typ.(type) {
				case *ast.IndexExpr:
					typ = g.X
				case *ast.IndexListExpr:
					typ = g.X
				}
				id = dir + "." + typ.(*ast.Ident).Name + "." + fn.Name.Name
			}
			ids = append(ids, id)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(ids)
	return ids
}
