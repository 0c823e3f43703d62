package casyn

// The reachability gate: every function in a non-test file of the module
// must be reached from a root, or sit on reachAllowlist with a reason.
//
// Roots are each main package's main function (the cmd/ tools, the
// examples and the separate cmd/casynbench module), every init function
// and package-level var initializer, the exported API of package casyn,
// and every method named like an interface method, either one declared
// in the module or one of the standard library's in stdIfaceMethods.
// A function is reached when a reached function names it: a call, a
// method value or a function value all count (types.Info.Uses).
// Functions only tests reach belong in _test.go files.

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

// reachAllowlist holds the functions that stay in non-test files though
// no root reaches them. Each one is a test oracle, or test support that
// tests in more than one package share.
var reachAllowlist = map[string]string{
	"casyn/internal/bnet.CheckEquivalence":     "test oracle: exhaustive network-vs-PLA equivalence",
	"casyn/internal/bnet.Network.Eval":         "test oracle: reference evaluation of a network",
	"casyn/internal/bnet.Network.EvalOutputs":  "test oracle: reference evaluation of a network",
	"casyn/internal/bnet.Sop.Eval":             "test oracle: evaluates a node function for Network.Eval",
	"casyn/internal/library.Library.Cell":      "test support: looks cells up by name in cover, library, netlist, sta and verify tests",
	"casyn/internal/logic.Cube.EvalAssignment": "test oracle: evaluates a cube for PLA.Eval",
	"casyn/internal/logic.PLA.Eval":            "test oracle: reference evaluation of a PLA",
	"casyn/internal/netlist.Netlist.Eval":      "test oracle: reference evaluation of a netlist",
	"casyn/internal/subject.DAG.Eval":          "test oracle: reference evaluation of a subject DAG",
	"casyn/internal/subject.DAG.EvalOutputs":   "test oracle: reference evaluation of a subject DAG",
	"casyn/internal/obs.ReadJSONL":             "test support: reads -metrics files back in cmd, obs and serve tests",
	"casyn/internal/obs.Snapshot.SpanCounts":   "test support: span-tree assertions in cmd, flow, golden and serve tests",
	"casyn/internal/obs.Snapshot.Fingerprint":  "test support: event-stream fingerprint in obs and flow tests",
	"casyn/internal/cover.DiffMatches":         "test support: names the first diverging match in cover and mapper tests",
	"casyn/internal/cover.SharesMatches":       "test support: proves ECO covers share the parent's matches in cover and mapper tests",
	"casyn/internal/mapper.Prepared.Pos":       "test support: reads the prepared placement in mapper and diffharness tests",
	"casyn/internal/mapper.Prepared.POPads":    "test support: reads the prepared pad positions in mapper and diffharness tests",
	"casyn/internal/mapper.CoverState.Field":   "test support: reads the field an adaptive run's accepted cover ran with in flow tests",
}

// stdIfaceMethods are standard-library interface methods a module type
// may implement without the module declaring the interface.
var stdIfaceMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"Read", "Write", "Close", "ServeHTTP",
	"Len", "Less", "Swap", "Push", "Pop",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
}

// unreachedFunc is a function no root reaches.
type unreachedFunc struct {
	pos   token.Position
	name  string
	lines int
}

func (u unreachedFunc) String() string {
	return fmt.Sprintf("%s:%d %s %d", u.pos.Filename, u.pos.Line, u.name, u.lines)
}

// reachPass type-checks every package of a module from source; the
// module's own imports resolve to its packages, everything else to the
// standard library.
type reachPass struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path -> directory
	pkgs map[string]*reachPkg
}

type reachPkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

func (r *reachPass) Import(path string) (*types.Package, error) {
	if _, ok := r.dirs[path]; !ok {
		return r.std.Import(path)
	}
	p, err := r.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (r *reachPass) load(path string) (*reachPkg, error) {
	if p, ok := r.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	r.pkgs[path] = nil
	dir := r.dirs[path]
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &reachPkg{info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: r}
	if p.types, err = conf.Check(path, r.fset, p.files, p.info); err != nil {
		return nil, err
	}
	r.pkgs[path] = p
	return p, nil
}

// findUnreached runs the pass over the module rooted at dir with module
// path modPath and returns its unreached functions in file order. A
// nested module under dir is loaded as the package its directory names,
// which is how cmd/casynbench's replace directive resolves it.
func findUnreached(dir, modPath string) ([]unreachedFunc, error) {
	r := &reachPass{fset: token.NewFileSet(), dirs: map[string]string{}, pkgs: map[string]*reachPkg{}}
	r.std = importer.ForCompiler(r.fset, "source", nil)
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != dir && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(p, 0); err == nil {
			rel, _ := filepath.Rel(dir, p)
			r.dirs[filepath.ToSlash(filepath.Join(modPath, rel))] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(r.dirs))
	for path := range r.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	ifaceMethods := map[string]bool{}
	for _, m := range stdIfaceMethods {
		ifaceMethods[m] = true
	}
	decls := map[*types.Func]*ast.FuncDecl{}
	declPkg := map[*types.Func]*reachPkg{}
	var order []*types.Func
	var roots []*types.Func
	for _, path := range paths {
		p, err := r.load(path)
		if err != nil {
			return nil, err
		}
		isMain := p.types.Name() == "main"
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							ifaceMethods[name.Name] = true
						}
					}
				}
				return true
			})
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := p.info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					decls[fn] = d
					declPkg[fn] = p
					order = append(order, fn)
					name := d.Name.Name
					switch {
					case d.Recv == nil && (name == "init" || isMain && name == "main"):
						roots = append(roots, fn)
					case path == modPath && token.IsExported(name) &&
						(d.Recv == nil || token.IsExported(recvName(fn))):
						roots = append(roots, fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						roots = append(roots, usedFuncs(d, p.info)...)
					}
				}
			}
		}
	}
	for _, fn := range order {
		if decls[fn].Recv != nil && ifaceMethods[fn.Name()] {
			roots = append(roots, fn)
		}
	}

	reached := map[*types.Func]bool{}
	for len(roots) > 0 {
		fn := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[fn] {
			continue
		}
		reached[fn] = true
		if d, ok := decls[fn]; ok {
			roots = append(roots, usedFuncs(d, declPkg[fn].info)...)
		}
	}

	var out []unreachedFunc
	for _, fn := range order {
		if reached[fn] {
			continue
		}
		d := decls[fn]
		start := d.Pos()
		if d.Doc != nil {
			start = d.Doc.Pos()
		}
		pos := r.fset.Position(d.Pos())
		if rel, err := filepath.Rel(dir, pos.Filename); err == nil {
			pos.Filename = filepath.ToSlash(rel)
		}
		out = append(out, unreachedFunc{
			pos:   pos,
			name:  funcKey(fn),
			lines: r.fset.Position(d.End()).Line - r.fset.Position(start).Line + 1,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos.Filename != out[j].pos.Filename {
			return out[i].pos.Filename < out[j].pos.Filename
		}
		return out[i].pos.Line < out[j].pos.Line
	})
	return out, nil
}

// usedFuncs lists the functions and methods n names.
func usedFuncs(n ast.Node, info *types.Info) []*types.Func {
	var fns []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				fns = append(fns, fn.Origin())
			}
		}
		return true
	})
	return fns
}

// recvName is the receiver's base type name, or "" for a function.
func recvName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// funcKey names fn as "importpath.Name" or "importpath.Recv.Name".
func funcKey(fn *types.Func) string {
	if recv := recvName(fn); recv != "" {
		return fn.Pkg().Path() + "." + recv + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and its standard-library imports from source")
	}
	unreached, err := findUnreached(".", "casyn")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var bad []string
	for _, u := range unreached {
		seen[u.name] = true
		if _, ok := reachAllowlist[u.name]; !ok {
			bad = append(bad, u.String())
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d functions no binary or casyn API reaches (file:line name lines); delete them, "+
			"move them into a _test.go file, or allowlist them with a reason:\n%s",
			len(bad), strings.Join(bad, "\n"))
	}
	var stale []string
	for name := range reachAllowlist {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("allowlist entries now reached or gone; remove them:\n%s", strings.Join(stale, "\n"))
	}
}

// TestReachabilityFixture proves the pass on a planted module: a dead
// function is flagged, while a method satisfying an interface, a method
// used only as a method value, a function named only in a package var
// initializer and one called only from init are not.
func TestReachabilityFixture(t *testing.T) {
	unreached, err := findUnreached(filepath.Join("testdata", "reachfixture"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range unreached {
		got = append(got, u.String())
	}
	want := "lib/lib.go:25 fixture/lib.planted 5"
	if len(got) != 1 || got[0] != want {
		t.Fatalf("unreached = %q, want exactly %q", got, want)
	}
}
