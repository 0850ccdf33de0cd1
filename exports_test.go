package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// keptExports names the exported top-level identifiers under internal/
// that no program references but that stay on purpose, keyed as
// "<package dir>.<name>", each with its reason.
var keptExports = map[string]string{
	"internal/linalg.MatMul":               "oracle for the MM workload's distributed product",
	"internal/linalg.SolveGauss":           "pivoting reference that SolveGaussNoPivot is checked against",
	"internal/linalg.SolveGaussNoPivot":    "oracle for the GE workload's distributed solve",
	"internal/linalg.ResidualInf":          "solve-quality check in the GE workload tests",
	"internal/linalg.FromRows":             "fixture constructor for hand-written matrices in tests",
	"internal/linalg.Identity":             "fixture for the MatMul identity tests",
	"internal/numeric.RelErr":              "relative-error comparison the experiment tests share",
	"internal/mpi.OpSum":                   "standard reduction operator the collective tests use",
	"internal/dist.Imbalance":              "load-imbalance measure the distribution tests assert on",
	"internal/core.ParallelEfficiency":     "baseline metric documented by Example_baselines",
	"internal/core.EstimateSeqTime":        "baseline metric documented by Example_baselines",
	"internal/core.IsoefficiencyPsi":       "baseline metric documented by Example_baselines",
	"internal/core.ProductivityPsi":        "baseline metric documented by Example_baselines",
	"internal/core.PastorBosqueEfficiency": "baseline metric documented by Example_baselines",
	"internal/core.ScaledWork":             "Theorem 1's W′, the closed form the theorem tests check",
	"internal/simnet.CalibrateModel":       "§4.5 calibration documented by Example_prediction",
}

// keptMethods names the exported methods under internal/ whose name no
// program selects but that stay on purpose, keyed as
// "<package dir>.<type>.<name>", each with its reason.
var keptMethods = map[string]string{
	"internal/cluster.Allocator.Down":                 "observer the allocator's health tests assert on",
	"internal/cluster.Cluster.ToSpec":                 "inverse of FromSpec, checked by the spec round-trip tests",
	"internal/core.EfficiencyCurve.MonotoneOnSamples": "Theorem 1 property the curve tests assert on",
	"internal/mpi.Result.MaxCommMS":                   "T_o on the critical path, the trace tests' cross-check",
	"internal/simnet.Wire.Transmit":                   "whole-transfer pricing the wire contention tests drive",
	"internal/trace.Trace.Gantt":                      "text rendering the trace tests check",
}

// stdlibMethods are the method names the standard library calls through
// its interfaces (fmt, errors, encoding, net/http), so a method with one
// of them is used even where no selector names it.
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Is": true, "As": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true,
}

// TestNoUnreferencedExports keeps exported identifiers that only tests
// reach from accumulating under internal/. It parses every non-test Go
// file of the repository, the perfbench module included (dot-directories
// and testdata are skipped), and fails on
//   - any exported top-level function, type, variable or constant
//     declared under internal/ that no non-test file references outside
//     its own declaration, unless keptExports names it;
//   - any exported method, of a type or an interface, declared under
//     internal/ whose name no selector in a non-test file uses, unless
//     keptMethods names it or the standard library calls it.
//
// It also fails on a keptExports or keptMethods entry that a program
// references or that no longer exists, so the lists cannot go stale.
//
// The scan is syntactic. Methods count as used by name, whatever the
// selector's receiver, and it does not check struct fields. Any reference
// from non-test code counts, so code that is dead only transitively
// still passes: a helper whose only caller is an unreferenced method, or
// a file reached only through one.
func TestNoUnreferencedExports(t *testing.T) {
	declared := map[string]bool{}
	referenced := map[string]bool{}
	methods := map[string]string{} // "<dir>.<type>.<name>" -> name
	selected := map[string]bool{}  // method and field names selectors use
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		scanFile(f, dir, declared, referenced)
		scanMethods(f, dir, methods, selected)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unreferenced []string
	for id := range declared {
		if !referenced[id] && keptExports[id] == "" {
			unreferenced = append(unreferenced, id)
		}
	}
	slices.Sort(unreferenced)
	for _, id := range unreferenced {
		t.Errorf("%s is exported but no program references it: delete it, move it into a _test.go file, or add it to keptExports with a reason", id)
	}
	for id := range keptExports {
		switch {
		case !declared[id]:
			t.Errorf("keptExports names %s, which is not declared", id)
		case referenced[id]:
			t.Errorf("keptExports names %s, which a program references: drop the entry", id)
		}
	}

	var unselected []string
	for id, name := range methods {
		if !selected[name] && !stdlibMethods[name] && keptMethods[id] == "" {
			unselected = append(unselected, id)
		}
	}
	slices.Sort(unselected)
	for _, id := range unselected {
		t.Errorf("method %s is exported but no program selects its name: delete it, or add it to keptMethods with a reason", id)
	}
	for id := range keptMethods {
		switch name, ok := methods[id]; {
		case !ok:
			t.Errorf("keptMethods names %s, which is not declared", id)
		case selected[name]:
			t.Errorf("keptMethods names %s, whose name a program selects: drop the entry", id)
		}
	}
}

// scanMethods records the exported methods a file under internal/
// declares, on types and in interfaces, and every name the file's
// selectors pick from a value or type (not from an imported package).
func scanMethods(f *ast.File, dir string, methods map[string]string, selected map[string]bool) {
	pkgs := map[string]bool{}
	for _, spec := range f.Imports {
		ip, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(ip)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		pkgs[name] = true
	}
	internal := strings.HasPrefix(dir, "internal/")
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); !ok || x.Obj != nil || !pkgs[x.Name] {
				selected[n.Sel.Name] = true
			}
		case *ast.FuncDecl:
			if internal && n.Recv != nil && n.Name.IsExported() {
				methods[dir+"."+receiverType(n.Recv.List[0].Type)+"."+n.Name.Name] = n.Name.Name
			}
		case *ast.TypeSpec:
			if it, ok := n.Type.(*ast.InterfaceType); ok && internal {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						if name.IsExported() {
							methods[dir+"."+n.Name.Name+"."+name.Name] = name.Name
						}
					}
				}
			}
		}
		return true
	})
}

// scanFile records the exported top-level identifiers a file under
// internal/ declares and every package-level identifier the file
// references, each keyed as "<package dir>.<name>". A declaration's
// references to its own name, or a method's to its receiver type, do
// not count.
func scanFile(f *ast.File, dir string, declared, referenced map[string]bool) {
	imports := map[string]string{} // local name -> package dir
	for _, spec := range f.Imports {
		ip, err := strconv.Unquote(spec.Path.Value)
		if err != nil || !strings.HasPrefix(ip, "repro/") {
			continue
		}
		name := path.Base(ip)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = strings.TrimPrefix(ip, "repro/")
	}
	// names holds the identifiers that declare something; they are not
	// references.
	names := map[*ast.Ident]bool{}
	declare := func(name *ast.Ident) {
		names[name] = true
		if strings.HasPrefix(dir, "internal/") && name.IsExported() {
			declared[dir+"."+name.Name] = true
		}
	}
	// walk records the references in a declaration, skipping owner.
	walk := func(owner string, decl ast.Node) {
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] != "" {
					referenced[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				ast.Inspect(n.X, visit) // n.Sel names a field or method
				return false
			case *ast.Field:
				if n.Type != nil {
					ast.Inspect(n.Type, visit) // n.Names are declarations
				}
				return false
			case *ast.Ident:
				if n.IsExported() && n.Name != owner && !names[n] {
					referenced[dir+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(decl, visit)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				declare(d.Name)
				walk(d.Name.Name, d)
				continue
			}
			names[d.Name] = true // a method name is not a package-level reference
			walk(receiverType(d.Recv.List[0].Type), d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declare(s.Name)
					walk(s.Name.Name, s)
				case *ast.ValueSpec:
					for _, name := range s.Names {
						declare(name)
					}
					walk("", s)
				}
			}
		}
	}
}

// receiverType returns the type name of a method receiver T or *T.
func receiverType(expr ast.Expr) string {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
