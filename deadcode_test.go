package radcrit

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The dead-declaration gate. A package-level declaration in a non-test
// file under internal/ must have a production user. It passes if any of
// these holds:
//   - non-test code uses it: the facade, cmd/ (the nested cmd/radbench
//     module included), examples/, or another declaration;
//   - it is a method that satisfies a method of some interface;
//   - it is on deadAllow, with a reason.
//
// A use from a _test.go file does not count, whatever its package, and
// neither does a use from a test-support package (deadTestSupport),
// whose own declarations are not scanned. A use inside the declaration
// itself (recursion, a self-referential type) does not count either.
// Constants of one iota group stand or fall together, since deleting one
// member would renumber the rest. The facade is public API and is not
// scanned.

// deadAllow lists the declarations the gate lets stand without a user,
// each with the reason it stays.
var deadAllow = map[string]string{
	"internal/fit.ConfidenceInterval":         "the paper-claims ledger (ROADMAP) reports each headline value with this binomial interval",
	"internal/metrics.Report.Clone":           "public as radcrit.Report; the facade's Sink doc tells callers to clone a report to retain it",
	"internal/metrics.Report.MaxRelErrPct":    "public as radcrit.Report: a report's worst element, beside MeanRelErrPct, for callers that inspect one execution",
	"internal/logdata.Log.SDCCount":           "public as radcrit.Log: counts a re-analysed campaign log's SDC events",
	"internal/logdata.Log.CrashHangCount":     "public as radcrit.Log: counts a re-analysed campaign log's DUE events",
	"internal/core.Criticality.LocalityShare": "public as radcrit.Criticality: the share of critical SDCs with one locality pattern",
}

// deadTestSupport lists the non-test packages under internal/ that exist
// only to serve tests, each with the reason.
var deadTestSupport = map[string]string{
	"internal/fleet/chaostest": "the chaos suite's worker subprocess and flaky proxy, imported only by the fleet tests",
}

func TestNoDeadDeclarations(t *testing.T) {
	for path, reason := range deadTestSupport {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("deadTestSupport[%q] has no reason", path)
		}
	}
	dead, err := findDead(".", allDeadRules, deadTestSupport)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]deadDecl, len(dead))
	for _, d := range dead {
		byName[d.name] = d
	}
	for name, reason := range deadAllow {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("deadAllow[%q] has no reason", name)
		}
		if _, ok := byName[name]; !ok {
			t.Errorf("deadAllow[%q] is stale: it is used, or no longer declared", name)
		}
		if reason != "" {
			delete(byName, name)
		}
	}
	for _, d := range dead {
		if _, ok := byName[d.name]; ok {
			t.Errorf("%s: %s has no production user; delete it, or allowlist it with a reason", d.pos, d.name)
		}
	}
}

// TestDeadGateFixture runs the gate over testdata/deadcode. The fixture
// declares three exports the gate must flag: one only its own tests use,
// one only another package's test uses, and one only a test-support
// package uses. It declares three it must not flag: a generic type's
// method called only through an instantiation, a method whose only
// caller is an interface, and a function only the nested cmd/bench
// module calls. Each of those three is flagged once the rule that clears
// it is switched off. Without its test-support mark, the support
// package's own export is flagged and the use it makes counts.
func TestDeadGateFixture(t *testing.T) {
	support := map[string]string{"internal/support": "fixture test support"}
	always := []string{"internal/a.OnlyOtherTest", "internal/a.OnlyOwnTest"}
	cases := []struct {
		name    string
		rules   deadRules
		support map[string]string
		want    []string
	}{
		{"all rules", allDeadRules, support, []string{"internal/a.OnlyViaSupport"}},
		{"no generic origin", deadRules{ifaces: true, modules: true}, support, []string{"internal/a.OnlyViaSupport", "internal/a.Queue.Lags"}},
		{"no interface rule", deadRules{origins: true, modules: true}, support, []string{"internal/a.OnlyViaSupport", "internal/a.statusRecorder.Flush"}},
		{"no nested modules", deadRules{origins: true, ifaces: true}, support, []string{"internal/a.OnlyViaSupport", "internal/a.UsedByBench"}},
		{"no test support", allDeadRules, nil, []string{"internal/support.Helper"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dead, err := findDead(filepath.Join("testdata", "deadcode"), c.rules, c.support)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, d := range dead {
				got = append(got, d.name)
			}
			want := append(slices.Clone(always), c.want...)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("flagged %v, want %v", got, want)
			}
		})
	}
}

// deadRules switches the gate's rules, so the fixture test can show
// what each one clears.
type deadRules struct {
	origins bool // a use of an instantiated generic method is a use of its declaration
	ifaces  bool // a method that satisfies an interface method is used
	modules bool // nested modules (a go.mod below the root) are users too
}

var allDeadRules = deadRules{origins: true, ifaces: true, modules: true}

// deadDecl is one flagged declaration: "internal/pkg.Name" or
// "internal/pkg.Type.Method", relative to the root module.
type deadDecl struct {
	name string
	pos  token.Position
}

// deadLoader type-checks the non-test files of every package of the
// modules under one root from source; the standard library comes from
// export data.
type deadLoader struct {
	fset   *token.FileSet
	std    types.Importer
	bps    map[string]*build.Package // this tree's packages by import path
	pkgs   map[string]*types.Package
	infos  map[string]*types.Info
	files  map[string][]*ast.File
	rules  deadRules
	used   map[types.Object]bool
	ifaces map[*types.Interface]bool
	named  map[*types.Named]bool // this tree's named types and their instances
}

// findDead reports, sorted by name, the declarations under root's
// internal/ that no rule clears. The packages named in support (paths
// relative to root's module) are test support: neither loaded for their
// uses nor scanned. Allowlisting is the caller's job.
func findDead(root string, rules deadRules, support map[string]string) ([]deadDecl, error) {
	mods, err := findModules(root)
	if err != nil {
		return nil, err
	}
	l := &deadLoader{
		fset:   token.NewFileSet(),
		bps:    map[string]*build.Package{},
		pkgs:   map[string]*types.Package{},
		infos:  map[string]*types.Info{},
		files:  map[string][]*ast.File{},
		rules:  rules,
		used:   map[types.Object]bool{},
		ifaces: map[*types.Interface]bool{},
		named:  map[*types.Named]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "gc", nil)
	rootPath := mods[0].path
	var paths []string
	for i, m := range mods {
		if i > 0 && !rules.modules {
			break
		}
		ps, err := l.addModule(m.dir, m.path, mods)
		if err != nil {
			return nil, err
		}
		paths = append(paths, ps...)
	}
	paths = slices.DeleteFunc(paths, func(p string) bool {
		_, ok := support[strings.TrimPrefix(p, rootPath+"/")]
		return ok
	})
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}
	if rules.ifaces {
		l.markInterfaceMethods()
	}

	var dead []deadDecl
	for _, p := range paths {
		rel, ok := strings.CutPrefix(p, rootPath+"/")
		if !ok || !strings.HasPrefix(rel, "internal/") {
			continue
		}
		for _, group := range l.decls(p) {
			if slices.ContainsFunc(group, func(o types.Object) bool { return l.used[o] }) {
				continue
			}
			for _, o := range group {
				dead = append(dead, deadDecl{name: rel + "." + declName(o), pos: l.fset.Position(o.Pos())})
			}
		}
	}
	slices.SortFunc(dead, func(a, b deadDecl) int { return strings.Compare(a.name, b.name) })
	return dead, nil
}

type module struct{ dir, path string }

// findModules returns root's module first, then every module in a
// directory below it.
func findModules(root string) ([]module, error) {
	var mods []module
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		if d.IsDir() || d.Name() != "go.mod" {
			return nil
		}
		dir := filepath.Dir(path)
		mp, err := modulePath(path)
		if err != nil {
			return err
		}
		mods = append(mods, module{dir: dir, path: mp})
		return nil
	})
	if err != nil {
		return nil, err
	}
	i := slices.IndexFunc(mods, func(m module) bool { return m.dir == root })
	if i < 0 {
		return nil, fmt.Errorf("%s: no go.mod", root)
	}
	mods[0], mods[i] = mods[i], mods[0]
	return mods, nil
}

func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if p, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(p), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// addModule registers the package directories of the module at dir,
// stopping at the directories of the other modules.
func (l *deadLoader) addModule(dir, path string, mods []module) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != dir && (skipDir(d.Name()) || slices.ContainsFunc(mods, func(m module) bool { return m.dir == p })) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		ip := path
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		l.bps[ip] = bp
		paths = append(paths, ip)
		return nil
	})
	return paths, err
}

func (l *deadLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.bps[path]; ok {
		return l.load(path)
	}
	return l.std.Import(path)
}

// load parses and type-checks the non-test files of one package, once,
// and records their uses.
func (l *deadLoader) load(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp := l.bps[path]
	var files []*ast.File
	for _, n := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	for _, f := range files {
		for _, d := range f.Decls {
			l.recordUses(d, info)
		}
	}
	l.pkgs[path], l.infos[path], l.files[path] = pkg, info, files
	for _, tv := range info.Types {
		l.addType(tv.Type)
	}
	return pkg, nil
}

// recordUses marks what declaration d uses. A method's receiver is not
// visited, and a declaration's use of itself does not count.
func (l *deadLoader) recordUses(d ast.Decl, info *types.Info) {
	visit := func(self map[types.Object]bool, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			o := l.origin(info.Uses[id])
			if o == nil || o.Pkg() == nil || self[o] {
				return true
			}
			l.used[o] = true
			return true
		})
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		self := map[types.Object]bool{info.Defs[d.Name]: true}
		if d.Type != nil {
			visit(self, d.Type)
		}
		if d.Body != nil {
			visit(self, d.Body)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			self := map[types.Object]bool{}
			switch s := s.(type) {
			case *ast.TypeSpec:
				self[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					self[info.Defs[n]] = true
				}
			}
			visit(self, s)
		}
	}
}

// origin maps an instantiated generic method to its declaration, when
// that rule is on.
func (l *deadLoader) origin(o types.Object) types.Object {
	if fn, ok := o.(*types.Func); ok && l.rules.origins {
		return fn.Origin()
	}
	return o
}

// addType records t if it is an interface with methods, or a named
// non-generic type (or instance) of this tree.
func (l *deadLoader) addType(t types.Type) {
	named, isNamed := t.(*types.Named)
	if isNamed && named.TypeParams() != nil && named.TypeArgs() == nil {
		return
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		if iface.NumMethods() > 0 {
			l.ifaces[iface] = true
		}
		return
	}
	if !isNamed || named.Obj().Pkg() == nil {
		return
	}
	if _, local := l.bps[named.Obj().Pkg().Path()]; local {
		l.named[named] = true
	}
}

// markInterfaceMethods marks every method that satisfies a method of an
// interface some loaded package declares or uses (the standard library's
// io.Writer, http.Flusher, fmt.Stringer and error included).
func (l *deadLoader) markInterfaceMethods() {
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				l.addType(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}
	l.addType(types.Universe.Lookup("error").Type())
	for _, iface := range errorsProtocol() {
		l.addType(iface)
	}

	for named := range l.named {
		ptr := types.NewPointer(named)
		mset := types.NewMethodSet(ptr)
		has := make(map[string]bool, mset.Len())
		for sel := range mset.Methods() {
			has[sel.Obj().Name()] = true
		}
	ifaces:
		for iface := range l.ifaces {
			for m := range iface.Methods() {
				if !has[m.Name()] {
					continue ifaces
				}
			}
			if !types.Implements(ptr, iface) {
				continue
			}
			for m := range iface.Methods() {
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					l.used[l.origin(obj)] = true
				}
			}
		}
	}
}

// errorsProtocol returns the interfaces through which package errors
// calls Unwrap, Is and As; it exports none of them.
func errorsProtocol() []types.Type {
	const src = `package errors
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "protocol.go", src, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("errors", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	var ifaces []types.Type
	for _, name := range pkg.Scope().Names() {
		ifaces = append(ifaces, pkg.Scope().Lookup(name).Type())
	}
	return ifaces
}

// decls returns the package-level declarations of path's non-test files,
// grouped so that an iota group is one unit.
func (l *deadLoader) decls(path string) [][]types.Object {
	info := l.infos[path]
	var groups [][]types.Object
	add := func(ids ...*ast.Ident) []types.Object {
		var objs []types.Object
		for _, id := range ids {
			if o := info.Defs[id]; o != nil && id.Name != "_" && id.Name != "init" {
				objs = append(objs, o)
			}
		}
		return objs
	}
	for _, f := range l.files[path] {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if g := add(d.Name); g != nil {
					groups = append(groups, g)
				}
			case *ast.GenDecl:
				var enum []types.Object
				isEnum := d.Tok == token.CONST && usesIota(d)
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if g := add(s.Name); g != nil {
							groups = append(groups, g)
						}
					case *ast.ValueSpec:
						if isEnum {
							enum = append(enum, add(s.Names...)...)
							continue
						}
						for _, n := range s.Names {
							if g := add(n); g != nil {
								groups = append(groups, g)
							}
						}
					}
				}
				if enum != nil {
					groups = append(groups, enum)
				}
			}
		}
	}
	return groups
}

// usesIota reports whether a const block is an iota enumeration.
func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// declName names o within its package: "Name" or "Type.Method".
func declName(o types.Object) string {
	fn, ok := o.(*types.Func)
	if !ok {
		return o.Name()
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return o.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + o.Name()
	}
	return o.Name()
}
