package autotune

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"autotune/internal/testenv"
)

// deadExportAllowlist names the members of the surface under internal/
// that TestExportedMeansUsed would flag and that stay all the same,
// each with the reason; members of the public API included. A top-level name is flagged when no non-test
// file of the module references it, or when no other package does; a
// method when no non-test file calls it and no interface its type
// implements has it; a field when no non-test file reads it. Keys are
// "internal/pkg.Name", "internal/pkg.Type.Method" and
// "internal/pkg.Type.Field". The test fails on an entry that is no
// longer flagged.
var deadExportAllowlist = map[string]string{
	"internal/chaos.NewInjector":                 "test support: the store, tunedb and server fault tests build their injectors with it; production code only takes a chaos.FS",
	"internal/chaos.Schedule":                    "test support: the seeded write-side fault scripts of the store and server chaos sweeps",
	"internal/chaos.Injector.Clear":              "test support: the store, tunedb and server fault tests disarm their scripts with it before checking recovery",
	"internal/chaos.Injector.Injected":           "test support: the server fault tests check how many scripted faults fired",
	"internal/chaos.Injector.Log":                "test support: the server fault tests name the faults that fired when a count is off",
	"internal/objective.CachingEvaluator.Lookup": "public API, test support: the tests of objective, tunedb, surrogate and resilience read what a cache holds through it without counting an evaluation",
	"internal/server.Client.Healthz":             "test support: the server and cmd/tuned tests poll readiness and degradation through the client; operators read /healthz directly",
	"internal/server.requestError.Unwrap":        "errors.As reaches it through the standard library's anonymous interface: the handler finds the *http.MaxBytesError behind a request defect and answers 413",
	"internal/testenv.Race":                      "test support: the AllocationBudget tests skip themselves under the race detector, whose instrumentation allocates",
	"internal/testenv.Pin":                       "test support: the tests compare every pinned file through it, and rewrite it under -update",
}

// unsetKnobAllowlist names the settings under internal/ that the knob
// rule of TestExportedMeansUsed would flag — no non-test file of
// another package sets them — and that stay all the same, each with the
// reason. Keys are "internal/pkg.Type.Field". The test fails on an
// entry that is no longer flagged.
var unsetKnobAllowlist = map[string]string{
	"internal/optimizer.IslandOptions.Migrants":     "public API, set through IslandOptions: gdeFingerprint and nsga2Fingerprint hash it, so a constant in its place could move the checkpoint pins",
	"internal/optimizer.Options.CR":                 "public API: GDE3's crossover rate of Algorithm 1, set through OptimizerOptions; ROADMAP 23 tunes it",
	"internal/optimizer.Options.F":                  "public API: GDE3's differential weight of Algorithm 1, set through OptimizerOptions; ROADMAP 23 tunes it",
	"internal/optimizer.StrategyConfig.NSGA2":       "NSGA2Controlled in compat.go sets it for bench/decomposed.go, and goes with it when a benchmark change moves bench/ to Run (ROADMAP 1(c))",
	"internal/store.Options.NoBackgroundCompaction": "bench/bench_test.go sets it to count the store's I/O without a background merge racing the count; bench/ changes only in a benchmark change",
}

const modulePath = "autotune"

// gatePackage is one package of the module as the gate reads it: its
// non-test files, the test files compiled into it and the files of its
// external _test package.
type gatePackage struct {
	files, tests, xtests []*ast.File
}

// loadModule parses every package of the module under the working
// directory, build constraints applied.
func loadModule(fset *token.FileSet) (map[string]*gatePackage, error) {
	pkgs := map[string]*gatePackage{}
	parse := func(dir string, names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		p := &gatePackage{}
		if p.files, err = parse(dir, bp.GoFiles); err != nil {
			return err
		}
		if p.tests, err = parse(dir, bp.TestGoFiles); err != nil {
			return err
		}
		if p.xtests, err = parse(dir, bp.XTestGoFiles); err != nil {
			return err
		}
		path := modulePath
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		pkgs[path] = p
		return nil
	})
	return pkgs, err
}

// sourceImporter type-checks the module's packages from their non-test
// files and hands everything else, i.e. the standard library, to the
// stdlib source importer.
type sourceImporter struct {
	fset    *token.FileSet
	std     types.Importer
	info    *types.Info
	sources map[string]*gatePackage
	pkgs    map[string]*types.Package
}

func (m *sourceImporter) Import(path string) (*types.Package, error) {
	src, ok := m.sources[path]
	if !ok {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, src.files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// surfaceFinding is one gated member the gate flags: key as in
// deadExportAllowlist, what is wrong with it, whether it belongs to a
// type the public API reaches, and whether the knob rule flagged it
// (its allowlist is unsetKnobAllowlist).
type surfaceFinding struct {
	key, why     string
	public, knob bool
}

// surfaceCounts says how many members of each kind were gated; knobs
// counts the fields the knob rule gates, public ones included.
type surfaceCounts struct{ names, methods, fields, public, knobs int }

// surface is what checkSurface reads off a module: the gate's findings
// and counts, and the public API as testdata/api.txt holds it.
type surface struct {
	findings []surfaceFinding
	counts   surfaceCounts
	packages int
	api      []string
}

// isKnobType reports whether a struct type of this name holds settings
// a caller sets: its name ends in Options, Config or Policy.
func isKnobType(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Policy")
}

func newInfo() *types.Info {
	return &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
}

// checkSurface type-checks pkgs and classifies every exported member
// declared in a package under internal/:
//
//   - a top-level func, type, var or const is used when a non-test file
//     references it outside its own declaration (a type's methods
//     belong to it), and it must also be referenced from another
//     package — other packages' test files, the package's own _test
//     package and bench/ count, and so does a type reachable through
//     the exported fields and signatures of what another package
//     references;
//   - a method is used when a non-test file selects it outside its own
//     declaration, or when its type implements an interface that has
//     the method: one the module declares or spells (named,
//     function-local or anonymous), one a standard-library package the
//     module imports declares, or error;
//   - a named field is used when a non-test file reads it — a plain =
//     target and a composite-literal key are not reads — or when it
//     carries a struct tag;
//   - the knob rule: an untagged exported field of a struct whose name
//     ends in Options, Config or Policy is a setting, and a setting must
//     be set by a non-test file of another package — a composite-literal
//     key, an assignment, ++/-- or taking its address. The package's own
//     writes fill defaults and do not count; bench/, cmd/, examples/ and
//     the root package are callers like any other.
//
// The types the root package's exported declarations reach (aliases,
// signatures, exported fields, transitively) are the public API: a
// caller can name them, so they are not gated as top-level names; their
// members are gated like any other and come back marked public.
func checkSurface(fset *token.FileSet, sources map[string]*gatePackage) (surface, error) {
	var counts surfaceCounts
	info := newInfo()
	imp := &sourceImporter{fset: fset, std: importer.ForCompiler(fset, "source", nil), info: info, sources: sources, pkgs: map[string]*types.Package{}}
	paths := make([]string, 0, len(sources))
	for path := range sources {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if len(sources[path].files) == 0 {
			continue
		}
		if _, err := imp.Import(path); err != nil {
			return surface{}, err
		}
	}
	// Test files are checked against the non-test packages the importer
	// holds, so what they reference in other packages is the same
	// object; an error (a name only an in-package test declares, say)
	// leaves the rest of the file resolved.
	testInfo := newInfo()
	tolerant := &types.Config{Importer: imp, Error: func(error) {}}
	for _, path := range paths {
		src := sources[path]
		if len(src.tests) > 0 {
			tolerant.Check(path, fset, append(append([]*ast.File(nil), src.files...), src.tests...), testInfo)
		}
		if len(src.xtests) > 0 {
			tolerant.Check(path+"_test", fset, src.xtests, testInfo)
		}
	}

	// The public API: what the root package's exported declarations
	// reach. A caller can name each of these types, so none can be
	// unexported.
	var roots []types.Type
	root := imp.pkgs[modulePath]
	if root != nil {
		for _, name := range root.Scope().Names() {
			if obj := root.Scope().Lookup(name); obj.Exported() {
				roots = append(roots, obj.Type())
			}
		}
	}
	public := reachable(roots)
	var api []string
	if root != nil {
		api = publicAPI(root, public)
	}

	// The gated objects, their keys, and for each the source ranges that
	// are the declaration itself: a recursive call, a self-referential
	// type or a method's receiver is not a use.
	type span struct{ pos, end token.Pos }
	type member struct {
		key          string
		kind         byte // 'n' top-level name, 'm' method, 'f' field
		public, knob bool
		self         []span
	}
	gated := map[types.Object]*member{}
	typeSpans := map[types.Object][]span{}
	for _, path := range paths {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		short := strings.TrimPrefix(path, modulePath+"/")
		for _, f := range sources[path].files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[d.Name]
					if d.Recv == nil {
						if d.Name.IsExported() {
							gated[obj] = &member{key: short + "." + d.Name.Name, kind: 'n', self: []span{{d.Pos(), d.End()}}}
						}
						break
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					id, ok := recv.(*ast.Ident)
					if !ok {
						break
					}
					tn := info.Uses[id]
					typeSpans[tn] = append(typeSpans[tn], span{d.Pos(), d.End()})
					if d.Name.IsExported() {
						gated[obj] = &member{key: short + "." + id.Name + "." + d.Name.Name, kind: 'm', public: public[tn], self: []span{{d.Pos(), d.End()}}}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							tn := info.Defs[s.Name]
							if s.Name.IsExported() && !public[tn] {
								gated[tn] = &member{key: short + "." + s.Name.Name, kind: 'n'}
							}
							typeSpans[tn] = append(typeSpans[tn], span{s.Pos(), s.End()})
							st, ok := s.Type.(*ast.StructType)
							if !ok {
								break
							}
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									if id.IsExported() && fld.Tag == nil {
										gated[info.Defs[id]] = &member{key: short + "." + s.Name.Name + "." + id.Name, kind: 'f', public: public[tn], knob: isKnobType(s.Name.Name)}
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									gated[info.Defs[id]] = &member{key: short + "." + id.Name, kind: 'n', self: []span{{s.Pos(), s.End()}}}
								}
							}
						}
					}
				}
			}
		}
	}
	for obj, m := range gated {
		if m.kind == 'n' {
			m.self = append(m.self, typeSpans[obj]...)
		}
		if m.knob {
			counts.knobs++
		}
		switch {
		case m.public:
			counts.public++
		case m.kind == 'n':
			counts.names++
		case m.kind == 'm':
			counts.methods++
		default:
			counts.fields++
		}
	}

	// Walk every file once, non-test and test, and record for each
	// gated object whether a non-test file uses (for a field: reads) it
	// outside its own declaration, whether a file of another package
	// references it, and for a knob whether a non-test file of another
	// package sets it.
	used, reached, set := map[types.Object]bool{}, map[types.Object]bool{}, map[types.Object]bool{}
	walk := func(pkg string, files []*ast.File, uses map[*ast.Ident]types.Object, nonTest bool) {
		for _, f := range files {
			written, sets := writeOnly(f), setters(f)
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := origin(uses[id])
				m := gated[obj]
				if m == nil {
					return true
				}
				if obj.Pkg().Path() != pkg {
					reached[obj] = true
					if nonTest && sets[id] {
						set[obj] = true
					}
				}
				if !nonTest || m.kind == 'f' && written[id] {
					return true
				}
				for _, sp := range m.self {
					if sp.pos <= id.Pos() && id.Pos() < sp.end {
						return true
					}
				}
				used[obj] = true
				return true
			})
		}
	}
	for _, path := range paths {
		src := sources[path]
		walk(path, src.files, info.Uses, true)
		walk(path, src.tests, testInfo.Uses, false)
		walk(path+"_test", src.xtests, testInfo.Uses, false)
	}
	// Another package also reaches a type it never names when the type
	// is in the exported signature or field of something it does use:
	// unexported, the type would reach that package nameless.
	var seen []types.Type
	for obj := range reached {
		seen = append(seen, obj.Type())
	}
	for obj := range reachable(seen) {
		reached[obj] = true
	}

	// A method is also used when its type implements an interface that
	// has it.
	ifaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, tv := range info.Types {
		if tv.IsType() {
			addIface(tv.Type)
		}
	}
	std := map[*types.Package]bool{}
	for _, p := range imp.pkgs {
		for _, dep := range p.Imports() {
			if _, ok := sources[dep.Path()]; !ok && !std[dep] {
				std[dep] = true
				for _, name := range dep.Scope().Names() {
					if tn, ok := dep.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
						addIface(tn.Type())
					}
				}
			}
		}
	}
	for obj, m := range gated {
		if m.kind != 'm' || used[obj] {
			continue
		}
		recv := obj.(*types.Func).Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range ifaces[obj.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				used[obj] = true
				break
			}
		}
	}

	var findings []surfaceFinding
	for obj, m := range gated {
		if m.knob && !set[obj] {
			findings = append(findings, surfaceFinding{key: m.key, why: "no non-test file of another package sets it", public: m.public, knob: true})
		}
		var why string
		switch {
		case used[obj] && (m.kind != 'n' || reached[obj]):
			continue
		case m.kind == 'm':
			why = "no non-test file calls it and no interface its type implements has it"
		case m.kind == 'f':
			why = "no non-test file reads it"
		case !used[obj]:
			why = "no non-test file references it"
		default:
			why = "no other package references it"
		}
		findings = append(findings, surfaceFinding{key: m.key, why: why, public: m.public})
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].key != findings[j].key {
			return findings[i].key < findings[j].key
		}
		return !findings[i].knob
	})
	return surface{findings, counts, len(sources), api}, nil
}

// publicAPI renders the public surface the way Go's api/go1.txt renders
// the standard library's: one line per exported name of the root
// package, per named type those names reach (public), and per exported
// field and method of each such type, with its kind and its go/types
// signature. Lines are sorted, so the bytes depend on the declarations
// alone.
func publicAPI(root *types.Package, public map[types.Object]bool) []string {
	var lines []string
	add := func(pkg *types.Package, format string, args ...any) {
		lines = append(lines, "pkg "+pkg.Path()+", "+fmt.Sprintf(format, args...))
	}
	typ := func(pkg *types.Package, t types.Type) string {
		return types.TypeString(t, func(p *types.Package) string {
			if p == pkg {
				return ""
			}
			return p.Name()
		})
	}
	sig := func(pkg *types.Package, f *types.Func) string {
		return strings.TrimPrefix(typ(pkg, f.Type()), "func")
	}
	for _, name := range root.Scope().Names() {
		switch obj := root.Scope().Lookup(name).(type) {
		case *types.Const:
			if obj.Exported() {
				add(root, "const %s %s = %s", name, typ(root, obj.Type()), obj.Val().ExactString())
			}
		case *types.Var:
			if obj.Exported() {
				add(root, "var %s %s", name, typ(root, obj.Type()))
			}
		case *types.Func:
			if obj.Exported() {
				add(root, "func %s%s", name, sig(root, obj))
			}
		case *types.TypeName:
			if obj.Exported() && obj.IsAlias() {
				add(root, "type %s = %s", name, typ(root, types.Unalias(obj.Type())))
			}
		}
	}
	for obj := range public {
		pkg, named := obj.Pkg(), obj.Type().(*types.Named)
		head := "type " + obj.Name()
		switch u := named.Underlying().(type) {
		case *types.Struct:
			head += " struct"
			add(pkg, "%s", head)
			for i := 0; i < u.NumFields(); i++ {
				switch f := u.Field(i); {
				case !f.Exported():
				case f.Embedded():
					add(pkg, "%s, embedded %s", head, typ(pkg, f.Type()))
				default:
					add(pkg, "%s, %s %s", head, f.Name(), typ(pkg, f.Type()))
				}
			}
		case *types.Interface:
			head += " interface"
			add(pkg, "%s", head)
			for i := 0; i < u.NumMethods(); i++ {
				if m := u.Method(i); m.Exported() {
					add(pkg, "%s, %s%s", head, m.Name(), sig(pkg, m))
				}
			}
		default:
			add(pkg, "%s %s", head, typ(pkg, u))
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				add(pkg, "method (%s) %s%s", typ(pkg, m.Type().(*types.Signature).Recv().Type()), m.Name(), sig(pkg, m))
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// origin maps an instantiated method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// writeOnly returns the identifiers of f that, if they name a field,
// only write it: the selector of a plain = target and a
// composite-literal key.
func writeOnly(f *ast.File) map[*ast.Ident]bool {
	w := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						w[sel.Sel] = true
					}
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				w[id] = true
			}
		}
		return true
	})
	return w
}

// setters returns the identifiers of f that, if they name a field, set
// it: the selector of an assignment target (= or op=) or of an ++/--
// operand, a composite-literal key, and the selector whose address is
// taken (flag.IntVar(&o.N, …) sets o.N).
func setters(f *ast.File) map[*ast.Ident]bool {
	s := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			s[sel.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				s[id] = true
			}
		}
		return true
	})
	return s
}

// reachable returns the named module types that roots reach: each
// named type, and through it the types of its exported fields and of
// its exported methods' signatures, transitively, looking through
// pointers, containers and signatures.
func reachable(roots []types.Type) map[types.Object]bool {
	seen := map[types.Object]bool{}
	var visit func(t types.Type)
	visit = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			obj := t.Origin().Obj()
			if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), modulePath) || seen[obj] {
				return
			}
			seen[obj] = true
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					visit(m.Type())
				}
			}
			visit(t.Underlying())
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					visit(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					visit(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					visit(m.Type())
				}
			}
		}
	}
	for _, t := range roots {
		visit(t)
	}
	return seen
}

// moduleSurface loads and checks the module once per test binary:
// TestExportedMeansUsed and TestPublicAPIPinned read the same
// type-check, the slow part of both.
var moduleSurface = sync.OnceValues(func() (surface, error) {
	fset := token.NewFileSet()
	sources, err := loadModule(fset)
	if err != nil {
		return surface{}, err
	}
	return checkSurface(fset, sources)
})

// apiPath is the pinned public surface; see publicAPI.
const apiPath = "testdata/api.txt"

// TestPublicAPIPinned holds the public surface — every exported name of
// package autotune and every exported field and method of the types
// those names reach, internal ones included — to testdata/api.txt, one
// sorted line each in the manner of Go's api/go1.txt. A change to the
// public API shows as a diff of that file and is declared with the
// change; -update rewrites it.
func TestPublicAPIPinned(t *testing.T) {
	if testenv.Race {
		t.Skip("type-checks the module and the standard library from source; the plain run covers it")
	}
	s, err := moduleSurface()
	if err != nil {
		t.Fatal(err)
	}
	testenv.Pin(t, apiPath, []byte(strings.Join(s.api, "\n")+"\n"))
}

// verdict is the gate's judgement of a set of findings: one error per
// finding no allowlist names and per entry that names no finding or
// carries no reason; how many findings each allowlist's rule made; and
// how many allowlisted members belong to the public API.
type verdict struct {
	errs                   []string
	flagged, knobs, public int
}

// judge holds findings to the two allowlists: a knob finding to knob,
// every other to dead.
func judge(findings []surfaceFinding, dead, knob map[string]string) verdict {
	var v verdict
	flagged, knobs := map[string]bool{}, map[string]bool{}
	for _, f := range findings {
		list, seen, fix := dead, flagged, "%s is exported and %s: delete it, unexport it, or move it into the test that uses it"
		if f.knob {
			list, seen, fix = knob, knobs, "%s is a setting and %s: make it the constant every run uses, or an unexported seam if only its package's tests set it"
		}
		seen[f.key] = true
		if _, allowed := list[f.key]; !allowed {
			v.errs = append(v.errs, fmt.Sprintf(fix, f.key, f.why))
		} else if f.public {
			v.public++
		}
	}
	for _, list := range []struct {
		entries map[string]string
		flagged map[string]bool
	}{{dead, flagged}, {knob, knobs}} {
		for key, reason := range list.entries {
			if !list.flagged[key] {
				v.errs = append(v.errs, "allowlist entry "+key+" is stale: the name is gone or used now; remove the entry")
			}
			if strings.TrimSpace(reason) == "" {
				v.errs = append(v.errs, "allowlist entry "+key+" carries no reason")
			}
		}
	}
	sort.Strings(v.errs)
	v.flagged, v.knobs = len(flagged), len(knobs)
	return v
}

// TestExportedMeansUsed is the dead-code gate of the CI Size ledger. It
// classifies every exported member declared under internal/ as
// checkSurface describes — top-level names, methods and fields, those of
// the public API in autotune.go included — and fails on each one flagged
// that no allowlist names with a reason, and on an entry there that is
// no longer flagged.
func TestExportedMeansUsed(t *testing.T) {
	if testenv.Race {
		t.Skip("one goroutine type-checking source: the race detector only makes it six times slower; the plain run and the CI Size ledger step cover it")
	}
	s, err := moduleSurface()
	if err != nil {
		t.Fatal(err)
	}
	v := judge(s.findings, deadExportAllowlist, unsetKnobAllowlist)
	for _, e := range v.errs {
		t.Error(e)
	}
	t.Logf("gated: %d top-level names, %d methods, %d fields in %d packages; %d flagged, %d allowlisted; %d public-API members, %d of them allowlisted",
		s.counts.names, s.counts.methods, s.counts.fields, s.packages, v.flagged, len(deadExportAllowlist), s.counts.public, v.public)
	t.Logf("knobs: %d gated, %d flagged, %d allowlisted", s.counts.knobs, v.knobs, len(unsetKnobAllowlist))
}

// TestSurfaceClassifier is the gate's oracle: small in-memory packages
// whose every member is known to be used or not. Not listed: Render,
// reached only through an anonymous parameter interface; Error and
// String, which satisfy error and fmt.Stringer; the tagged field; Cmp,
// read in a comparison; Res, which b reaches through Make without
// naming it. Listed: Loop, which only it calls; Written, which is only
// written; Local, which only its own package uses. The knob rule over
// Options: listed are Defaulted, which only its own package's defaults
// write, and Tested, which only a test sets; not listed are Literal,
// Assigned and Addressed, which b sets by a composite literal, an
// assignment and flag.IntVar(&…); PublicConfig.Knob, which nothing sets
// and the root package reaches, is listed like the rest. Then judge: the
// findings pass with a reason for each, and fail with PublicConfig.Knob
// unnamed, with an empty reason, or with a stale entry for it.
func TestSurfaceClassifier(t *testing.T) {
	if testenv.Race {
		t.Skip("type-checks the standard library from source; the plain run covers it")
	}
	src := map[string]string{
		modulePath: `package autotune

import "autotune/internal/a"

type Settings = a.PublicConfig

func Use(s Settings) int { return a.Knob(s) }
`,
		modulePath + "/internal/a": `package a

import "io"

type Options struct {
	Defaulted, Tested, Literal, Assigned, Addressed int
}

func (o Options) withDefaults() Options {
	if o.Defaulted == 0 {
		o.Defaulted = 4
	}
	return o
}

func Apply(o Options) int {
	o = o.withDefaults()
	return o.Defaulted + o.Tested + o.Literal + o.Assigned + o.Addressed
}

type PublicConfig struct{ Knob int }

func Knob(c PublicConfig) int { return c.Knob }

type T struct {
	Tagged  int ` + "`json:\"tagged\"`" + `
	Cmp     int
	Written int
	Kept    int
}

func (T) Error() string        { return "" }
func (T) String() string       { return "" }
func (T) Render(w io.Writer)   {}
func (t T) Loop(n int) int     { if n == 0 { return 0 }; return t.Loop(n - 1) }
func (t *T) Use() bool         { t.Written = 1; return t.Cmp == 2 && t.Kept > 0 }

var Shared = T{Written: 2}

func Local() int { return 1 }

type Res struct{ N int }

func Make() Res { return Res{N: 1} }

func helper() int { return Local() }
`,
		modulePath + "/internal/b": `package b

import (
	"flag"
	"io"

	"autotune/internal/a"
)

func show(r interface{ Render(io.Writer) }) { r.Render(nil) }

func Run() bool {
	var t a.T
	show(t)
	o := a.Options{Literal: 1}
	o.Assigned = 2
	flag.IntVar(&o.Addressed, "n", 0, "")
	return t.Use() && a.Shared.Cmp == a.Make().N+a.Apply(o)
}
`,
		modulePath + "/cmd/c": `package main

import (
	"fmt"

	"autotune/internal/b"
)

func main() { fmt.Println(b.Run()) }
`,
	}
	parse := func(fset *token.FileSet, name, text string) *ast.File {
		f, err := parser.ParseFile(fset, name, text, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fset := token.NewFileSet()
	sources := map[string]*gatePackage{}
	for path, text := range src {
		sources[path] = &gatePackage{files: []*ast.File{parse(fset, path+"/x.go", text)}}
	}
	sources[modulePath+"/internal/b"].tests = []*ast.File{parse(fset, modulePath+"/internal/b/x_test.go", `package b

import "autotune/internal/a"

var _ = a.Options{Tested: 1}
`)}
	s, err := checkSurface(fset, sources)
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, f := range s.findings {
		listed = append(listed, f.key+": "+f.why)
	}
	want := []string{
		"internal/a.Local: no other package references it",
		"internal/a.Options.Defaulted: no non-test file of another package sets it",
		"internal/a.Options.Tested: no non-test file of another package sets it",
		"internal/a.PublicConfig.Knob: no non-test file of another package sets it",
		"internal/a.T.Loop: no non-test file calls it and no interface its type implements has it",
		"internal/a.T.Written: no non-test file reads it",
	}
	if fmt.Sprint(listed) != fmt.Sprint(want) {
		t.Errorf("flagged:\n%s\nwant:\n%s", strings.Join(listed, "\n"), strings.Join(want, "\n"))
	}
	const public = "internal/a.PublicConfig.Knob"
	dead := map[string]string{"internal/a.Local": "r", "internal/a.T.Loop": "r", "internal/a.T.Written": "r"}
	knob := map[string]string{"internal/a.Options.Defaulted": "r", "internal/a.Options.Tested": "r", public: "r"}
	unnamed, empty, stale := maps.Clone(knob), maps.Clone(knob), maps.Clone(dead)
	delete(unnamed, public)
	empty[public] = " "
	stale[public] = "r"
	for _, c := range []struct {
		name       string
		dead, knob map[string]string
		errs       []string
		public     int
	}{
		{"public member with a reason", dead, knob, nil, 1},
		{"public member unnamed", dead, unnamed, []string{public + " is a setting and no non-test file of another package sets it: make it the constant every run uses, or an unexported seam if only its package's tests set it"}, 0},
		{"public member with an empty reason", dead, empty, []string{"allowlist entry " + public + " carries no reason"}, 1},
		{"stale public entry", stale, knob, []string{"allowlist entry " + public + " is stale: the name is gone or used now; remove the entry"}, 1},
	} {
		if v := judge(s.findings, c.dead, c.knob); fmt.Sprint(v.errs) != fmt.Sprint(c.errs) || v.public != c.public || v.flagged != 3 || v.knobs != 3 {
			t.Errorf("%s: judged %+v, want errors %q, %d public, 3 flagged and 3 knobs", c.name, v, c.errs, c.public)
		}
	}
	if c := (surfaceCounts{names: 9, methods: 5, fields: 9, public: 1, knobs: 6}); s.counts != c {
		t.Errorf("counts %+v, want %+v", s.counts, c)
	}
	if want := []string{
		"pkg autotune, func Use(s a.PublicConfig) int",
		"pkg autotune, type Settings = a.PublicConfig",
		"pkg autotune/internal/a, type PublicConfig struct",
		"pkg autotune/internal/a, type PublicConfig struct, Knob int",
	}; fmt.Sprint(s.api) != fmt.Sprint(want) {
		t.Errorf("api:\n%s\nwant:\n%s", strings.Join(s.api, "\n"), strings.Join(want, "\n"))
	}
}
