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

// TestNoUnreferencedExports keeps exported identifiers that only tests
// reach from accumulating under internal/. It parses every non-test Go
// file of the repository, the perfbench module included (dot-directories
// and testdata are skipped), and fails on any exported top-level
// function, type, variable or constant declared under internal/ that no
// non-test file references outside its own declaration, unless
// keptExports names it. It also fails on a keptExports entry that a
// program references or that no longer exists, so the list cannot go
// stale.
//
// The scan is syntactic. It does not check methods or struct fields,
// and any reference from non-test code counts, so code that is dead only
// transitively still passes: a helper whose only caller is an
// unreferenced method, or a file reached only through one.
func TestNoUnreferencedExports(t *testing.T) {
	declared := map[string]bool{}
	referenced := map[string]bool{}
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
		scanFile(f, filepath.ToSlash(filepath.Dir(p)), declared, referenced)
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
