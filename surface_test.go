package strgindex

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported declarations under internal/ that no
// non-test code references and that stay anyway, each with its reason.
// Keys are package.Func or package.Type.Method. The test fails on a stale
// entry, so the list can only shrink.
var surfaceAllowlist = map[string]string{
	"mtree.Tree.CheckInvariants":      "auditor: the M-tree property tests check the covering-radius invariant with it",
	"core.SharedDB.CheckSpatialIndex": "auditor: golden corpus, soak and composed-query tests compare the trajectory R-tree (and, through it, rtree.CheckInvariants) against the retained OGs",
	"faultfs.NewInject":               "fault injection: every crash matrix builds its failing filesystem with it",
	"faultfs.CrashPoints":             "fault injection: every byte-cut crash matrix derives its cut set with it",
	"faultfs.Inject.Crashed":          "fault injection: crash matrices ask whether the planted fault fired",
	"cluster.XMeans":                  "ROADMAP item 1 Step 0 measures it against the BIC sweep before a re-clusterer is chosen",
	"core.SharedDB.Save":              "state observer: the feed replay, identical-run and restart tests compare full persisted image bytes, on in-memory and durable databases alike",
	"core.SharedDB.WALSize":           "state observer: crash and replication tests have no other window on the committed log size",
	"embed.IVF.Trained":               "state observer: tests assert the train-on-first-batch transition",
	"obs.Histogram.Count":             "state observer: tests read a histogram's sample count without parsing the exposition text",
	"index.Tree.Range":                "completes the KNN/KNNExact family on Tree (one line over RangeStatsCtx); the identity matrices compare it",
	"query.Eastbound":                 "completes the Heading shorthand family; the predicate and composed-query tests build on it",
	"query.Northbound":                "completes the Heading shorthand family beside Eastbound",
	"query.Southbound":                "completes the Heading shorthand family beside Eastbound",
	"query.Westbound":                 "completes the Heading shorthand family beside Eastbound",
	"core.CorruptError.Is":            "called by errors.Is, whose interface is declared inside a function body",
	"wal.CorruptError.Is":             "called by errors.Is, whose interface is declared inside a function body",
}

// surfaceLoader type-checks the module's packages from source, non-test
// files only, sharing one types.Package per import path so an object
// declared in one package is the same object where another uses it.
type surfaceLoader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	root string
	pkgs map[string]*surfacePkg
}

type surfacePkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *surfaceLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != "strgindex" && !strings.HasPrefix(path, "strgindex/") {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *surfaceLoader) load(path string) (*surfacePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, "strgindex"), "/"))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &surfacePkg{info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	l.pkgs[path] = p
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.types, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info)
	return p, err
}

// TestExportedSurfaceHasCallers keeps the library surface at what runs:
// every exported function, method and type declared in a non-test file
// under internal/ must be referenced from a non-test file of the module
// (bench/ included), share its name with an interface method, or sit in
// surfaceAllowlist with a reason.
func TestExportedSurfaceHasCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	if len(surfaceAllowlist) > 25 {
		t.Fatalf("allowlist holds %d entries, budget is 25", len(surfaceAllowlist))
	}
	l := &surfaceLoader{fset: token.NewFileSet(), root: ".", pkgs: map[string]*surfacePkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			return nil // no buildable non-test Go files here
		}
		_, err = l.load(filepath.ToSlash(filepath.Join("strgindex", path)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	used := map[types.Object]bool{}
	usedNames := map[string]bool{} // interface methods; selectors in bench/
	seen := map[*types.Package]bool{}
	var ifaceNames func(*types.Package)
	ifaceNames = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					usedNames[it.Method(i).Name()] = true
				}
			}
		}
		for _, q := range p.Imports() {
			ifaceNames(q)
		}
	}
	for _, p := range l.pkgs {
		ifaceNames(p.types)
		for _, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				used[o.Origin()] = true
			case *types.TypeName:
				used[o] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							usedNames[name.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	// bench/ is a nested module that ./... never compiles: read its
	// selectors syntactically. pkg.Name on an internal import names a
	// package-level declaration; any other x.Name may be a method call.
	usedQualified := map[string]bool{}
	benchFiles, _ := filepath.Glob("bench/*.go")
	for _, path := range benchFiles {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			ipath := strings.Trim(im.Path.Value, `"`)
			if strings.HasPrefix(ipath, "strgindex/internal/") {
				name := ipath[strings.LastIndex(ipath, "/")+1:]
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = ipath
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					usedQualified[imports[x.Name]+"."+sel.Sel.Name] = true
				} else {
					usedNames[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	var unused []string
	allowHit := map[string]bool{}
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, "strgindex/internal/") {
			continue
		}
		for id, obj := range p.info.Defs {
			if obj == nil || !id.IsExported() {
				continue
			}
			key, live := p.types.Name()+"."+id.Name, used[obj]
			switch o := obj.(type) {
			case *types.TypeName:
				if o.Parent() != p.types.Scope() {
					continue
				}
				live = live || usedQualified[path+"."+id.Name]
			case *types.Func:
				if recv := o.Type().(*types.Signature).Recv(); recv != nil {
					rt := recv.Type()
					if pt, ok := rt.(*types.Pointer); ok {
						rt = pt.Elem()
					}
					named, ok := rt.(*types.Named)
					if !ok || !named.Obj().Exported() {
						continue // methods of unexported types are reachable only through interfaces
					}
					key = p.types.Name() + "." + named.Obj().Name() + "." + id.Name
					live = live || usedNames[id.Name]
				} else {
					live = live || usedQualified[path+"."+id.Name]
				}
			default:
				continue
			}
			_, allowed := surfaceAllowlist[key]
			switch {
			case allowed && live:
				allowHit[key] = true
				t.Errorf("surfaceAllowlist[%q] is stale: the declaration has a non-test reference", key)
			case allowed:
				allowHit[key] = true
			case !live:
				unused = append(unused, fmt.Sprintf("%s: %s", l.fset.Position(id.Pos()), key))
			}
		}
	}
	for key := range surfaceAllowlist {
		if !allowHit[key] {
			t.Errorf("surfaceAllowlist[%q] is stale: no such unreferenced declaration", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but referenced by no non-test file: %s", u)
	}
}
