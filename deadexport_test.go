package autotune

import (
	"errors"
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

	"autotune/internal/israce"
)

// deadExportAllowlist names the exported top-level identifiers under
// internal/ that no non-test file of the module references and that
// stay exported all the same, each with the reason. Everything lives
// under internal/, so any other such name is unreachable code:
// TestExportedMeansUsed fails on it, and on an entry here that has
// gained a caller or lost its declaration.
var deadExportAllowlist = map[string]string{
	"internal/chaos.NewInjector": "test support: the store, tunedb and server fault tests build their injectors with it; production code only takes a chaos.FS",
	"internal/chaos.Schedule":    "test support: the seeded write-side fault scripts of the store and server chaos sweeps",
	"internal/israce.Enabled":    "test support: the AllocationBudget tests skip themselves under the race detector, whose instrumentation allocates",
}

const modulePath = "autotune"

// sourceImporter type-checks the module's own packages from their
// non-test files (build constraints applied) and hands everything
// else, i.e. the standard library, to the stdlib source importer.
type sourceImporter struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
}

func (m *sourceImporter) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	dir := "." + strings.TrimPrefix(path, modulePath)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.files[path] = p, files
	return p, nil
}

// TestExportedMeansUsed is the dead-export gate of the CI Size ledger:
// every exported top-level func, type, var and const of internal/...
// is referenced from some non-test file of the module — the declaring
// package, autotune.go, cmd/, bench/ and examples/ all count; a
// reference from inside the declaration itself does not — or is on
// deadExportAllowlist with a reason. Methods and fields are not
// gated: interface satisfaction and the facade's type aliases make
// "used" a judgement there.
func TestExportedMeansUsed(t *testing.T) {
	if israce.Enabled {
		t.Skip("one goroutine type-checking source: the race detector only makes it six times slower; the plain run and the CI Size ledger step cover it")
	}
	fset := token.NewFileSet()
	imp := &sourceImporter{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		path := modulePath
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		var noGo *build.NoGoError
		if _, err := imp.Import(path); err != nil && !errors.As(err, &noGo) {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The gated objects, and for each the source ranges that are the
	// declaration itself, a type's methods included: a recursive call,
	// a self-referential type or a method's receiver is not a caller.
	type span struct{ pos, end token.Pos }
	gated := map[types.Object]bool{}
	self := map[types.Object][]span{}
	declare := func(id *ast.Ident, n ast.Node) {
		if obj := imp.info.Defs[id]; id.IsExported() {
			gated[obj] = true
			self[obj] = append(self[obj], span{n.Pos(), n.End()})
		}
	}
	for path, files := range imp.files {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						declare(d.Name, d)
						break
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						obj := imp.info.Uses[id]
						self[obj] = append(self[obj], span{d.Pos(), d.End()})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								declare(id, s)
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range imp.info.Uses {
		inSelf := false
		for _, sp := range self[obj] {
			inSelf = inSelf || sp.pos <= id.Pos() && id.Pos() < sp.end
		}
		if gated[obj] && !inSelf {
			used[obj] = true
		}
	}

	unused := map[string]bool{}
	for obj := range gated {
		if !used[obj] {
			unused[strings.TrimPrefix(obj.Pkg().Path(), modulePath+"/")+"."+obj.Name()] = true
		}
	}
	var dead []string
	for n := range unused {
		if _, allowed := deadExportAllowlist[n]; !allowed {
			dead = append(dead, n)
		}
	}
	sort.Strings(dead)
	for _, n := range dead {
		t.Errorf("%s is exported and no non-test file references it: delete it, unexport it, or move it into the test that uses it", n)
	}
	for n, reason := range deadExportAllowlist {
		if !unused[n] {
			t.Errorf("allowlist entry %s is stale: the name is gone or has a caller now; remove the entry", n)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s carries no reason", n)
		}
	}
	t.Logf("%d gated declarations in %d packages, %d without a caller, %d allowlisted", len(gated), len(imp.pkgs), len(unused), len(deadExportAllowlist))
}
