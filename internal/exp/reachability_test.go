package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptUnreached is the allowlist of TestNoTestOnlyMechanisms: every function
// in non-test code that no shipping root reaches and that stays anyway, with
// the reason. Three kinds may be here and nothing else: read-only observers,
// shape-test oracles and reference checks a kept test uses to assert an
// invariant of shipping code, and the paper's packing surface in
// internal/mad. A mechanism that only tests drive goes, with those tests.
// Keys are "<dir>.<Func>" or
// "<dir>.<Type>.<Method>" with <dir> relative to internal/.
var keptUnreached = map[string]string{
	// Observers: read-only, no state of their own beyond a tally.
	"proto.Reassembler.PendingFragments":  "observer: out-of-order fragments buffered — must be 0 at quiescence (soaks, property tests)",
	"proto.Reassembler.Duplicates":        "observer: the exactly-once filter's drop tally",
	"proto.RdvSender.Outstanding":         "observer: payloads the sender still holds — the fuzzer's leak bound",
	"proto.RdvSender.Pending":             "observer: whether a token still awaits its CTS",
	"proto.RdvSender.DupCTS":              "observer: stray/duplicate CTS frames tolerated",
	"proto.RdvReceiver.Granted":           "observer: in-flight grants — must be 0 after completion",
	"proto.RdvReceiver.Anomalies":         "observer: tolerated protocol irregularities by kind",
	"proto.RMA.Outstanding":               "observer: pending get/put tables — must drain",
	"proto.RMA.Rejected":                  "observer: remote-originated frames refused whole",
	"chaos.Trace.Diff":                    "observer: first divergence of two executed-event traces — the replay battery's failure message",
	"chaos.Trace.Equal":                   "observer: Diff == \"\"",
	"testnet.Net.Fleet":                   "observer: the final fleet roll-up the testnet battery asserts on and writes as its CI artifact",
	"middleware/minimpi.World.Pending":    "observer: posted/unexpected queue depths at quiescence",
	"middleware/minirpc.Peer.Outstanding": "observer: calls awaiting a reply",
	"middleware/minidsm.DSM.Stats":        "observer: invalidation and cache-hit tallies of the coherence protocol",
	"simnet.Engine.RunUntil":              "observer's clock: control_test and the timer tests stop virtual time at a deadline; shipping runs use Run/RunLimit",
	"simnet.Engine.peek":                  "RunUntil's look at the next live event",

	// The E/X shape-test oracles: each reads its experiment's result the
	// way the README states the claim.
	"exp.E1Speedup":         "shape-test oracle for E1",
	"exp.E2Frames":          "shape-test oracle for E2",
	"exp.E4Times":           "shape-test oracle for E4",
	"exp.E5ControlP99":      "shape-test oracle for E5",
	"exp.E6Quality":         "shape-test oracle for E6",
	"exp.E7PacketsPerFrame": "shape-test oracle for E7",
	"exp.E8Time":            "shape-test oracle for E8",
	"exp.E9Times":           "shape-test oracle for E9",
	"exp.E10CtrlP99":        "shape-test oracle for E10",
	"exp.X1Goodput":         "shape-test oracle for X1",
	"exp.RetryShape":        "the wall-clock shape tests' bounded retry (X2 and X4 measure real sockets on a shared box)",

	// Reference checks.
	"packet.MayReorder":  "reference check: pairwise form of ordering rules 1/2 (constraint.go)",
	"packet.MustPrecede": "reference check: rule 1 with submission order explicit",

	// The paper's packing surface.
	"mad.Channel.OnExpress":  "mad packing surface: the paper's receive-express upcall",
	"mad.Channel.OnFragment": "mad packing surface: per-fragment unpack upcall",
	"mad.NewSession":         "mad packing surface: a session over an engine built elsewhere (Bind is what ships)",
}

// TestNoTestOnlyMechanisms is the ratchet behind "nothing ships that only a
// test calls": a go/types reachability pass over the module's non-test files
// from the shipping roots — every function of cmd/*, examples/* and bench/...,
// every init and main, every package-level var initializer. Edges are the
// identifiers a declaration uses; a method is reached when it is selected
// concretely, or when its receiver type is reached and its name is a method
// of an interface declared in the module or of the handful of standard
// interfaces the runtime calls through (error, fmt.Stringer, sort/heap,
// io.*, http.Handler, json.(Un)Marshaler). Every unreached function must be
// on keptUnreached, and every entry there must still be unreached.
func TestNoTestOnlyMechanisms(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	g := loadModule(t, root)
	g.reach()

	var dead []string
	deadLines := 0
	seen := map[string]bool{}
	for _, f := range g.funcs {
		if g.reached[f.obj] {
			continue
		}
		seen[f.name] = true
		if _, ok := keptUnreached[f.name]; ok {
			continue
		}
		dead = append(dead, fmt.Sprintf("%s:%d %s %d", f.file, f.line, f.name, f.lines))
		deadLines += f.lines
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d functions (%d lines) are reachable from no shipping root — delete each with the tests that only exercised it, or allowlist it in keptUnreached with its reason:\n%s",
			len(dead), deadLines, strings.Join(dead, "\n"))
	}
	for name := range keptUnreached {
		if !seen[name] {
			t.Errorf("keptUnreached[%q]: reachable from a shipping root now, or gone — drop the entry", name)
		}
	}
	t.Logf("allowlist length: %d", len(keptUnreached))
}

// declFunc is one FuncDecl of the module's non-test code.
type declFunc struct {
	obj   types.Object
	name  string // allowlist key
	file  string // relative to the module root
	line  int
	lines int // doc comment included
}

type reachGraph struct {
	fset    *token.FileSet
	root    string                          // module root directory
	edges   map[types.Object][]types.Object // declaration → what it uses
	methods map[types.Object][]*types.Func  // named type → its declared methods
	called  map[string]bool                 // method names some interface can call
	funcs   []declFunc
	roots   []types.Object
	reached map[types.Object]bool
}

// reach marks everything the roots lead to.
func (g *reachGraph) reach() {
	g.reached = map[types.Object]bool{}
	work := append([]types.Object(nil), g.roots...)
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		if g.reached[o] {
			continue
		}
		g.reached[o] = true
		work = append(work, g.edges[o]...)
		for _, m := range g.methods[o] {
			if g.called[m.Name()] {
				work = append(work, m)
			}
		}
	}
}

// moduleImporter type-checks the module's own packages from source, in
// dependency order, and leaves everything else to the stdlib source importer.
type moduleImporter struct {
	t      *testing.T
	fset   *token.FileSet
	std    types.Importer
	listed map[string]*listedPkg
	errs   []error
}

type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string

	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	lp, ok := m.listed[path]
	if !ok {
		return m.std.Import(path)
	}
	if lp.pkg != nil {
		return lp.pkg, nil
	}
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			m.t.Fatal(err)
		}
		lp.files = append(lp.files, f)
	}
	lp.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: m, Error: func(err error) { m.errs = append(m.errs, err) }}
	lp.pkg, _ = conf.Check(path, m.fset, lp.files, lp.info)
	return lp.pkg, nil
}

// loadModule lists, parses and type-checks every package under root and
// builds the declaration graph.
func loadModule(t *testing.T, root string) *reachGraph {
	cmd := exec.Command("go", "list", "-json=ImportPath,Dir,GoFiles", "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	fset := token.NewFileSet()
	imp := &moduleImporter{t: t, fset: fset, std: importer.ForCompiler(fset, "source", nil), listed: map[string]*listedPkg{}}
	var order []*listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		lp := new(listedPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		imp.listed[lp.ImportPath] = lp
		order = append(order, lp)
	}
	for _, lp := range order {
		if _, err := imp.Import(lp.ImportPath); err != nil {
			t.Fatal(err)
		}
	}
	if len(imp.errs) > 0 {
		t.Fatalf("%d type errors, first: %v", len(imp.errs), imp.errs[0])
	}

	g := &reachGraph{
		fset:    fset,
		root:    root,
		edges:   map[types.Object][]types.Object{},
		methods: map[types.Object][]*types.Func{},
		called:  map[string]bool{},
	}
	// The standard interfaces the runtime and stdlib call methods through:
	// error, what errors.Is/As/Unwrap assert for, and the named ones below.
	for _, n := range []string{"Error", "Unwrap", "Is", "As"} {
		g.called[n] = true
	}
	for path, names := range map[string][]string{
		"fmt":            {"Stringer"},
		"sort":           {"Interface"},
		"container/heap": {"Interface"},
		"net/http":       {"Handler"},
		"encoding/json":  {"Marshaler", "Unmarshaler"},
		"io":             nil, // every interface io declares
	} {
		pkg, err := imp.std.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		if names == nil {
			names = pkg.Scope().Names()
		}
		for _, n := range names {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
				g.callable(tn.Type())
			}
		}
	}

	for _, lp := range order {
		rel, _ := filepath.Rel(root, lp.Dir)
		rel = filepath.ToSlash(rel)
		rootPkg := strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/") || rel == "bench" || strings.HasPrefix(rel, "bench/")
		for _, f := range lp.files {
			// Every interface type written anywhere in the module, named or
			// not, can call the methods it lists.
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					g.callable(lp.info.Types[it].Type)
				}
				return true
			})
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					g.addFunc(lp, rel, rootPkg, d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							g.edges[lp.info.Defs[s.Name]] = uses(lp.info, s)
						case *ast.ValueSpec:
							us := uses(lp.info, s)
							for _, n := range s.Names {
								if o := lp.info.Defs[n]; o != nil {
									g.edges[o] = us
								}
							}
							if d.Tok == token.VAR {
								g.roots = append(g.roots, us...)
							}
						}
					}
				}
			}
		}
	}
	return g
}

// callable records the method names of an interface type.
func (g *reachGraph) callable(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			g.called[it.Method(i).Name()] = true
		}
	}
}

// addFunc records one FuncDecl of the package at rel (its directory under
// the module root): its edges, its receiver type's method list, and — in a
// shipping root package, or for an init/main anywhere — its rootness.
func (g *reachGraph) addFunc(lp *listedPkg, rel string, rootPkg bool, d *ast.FuncDecl) {
	obj := lp.info.Defs[d.Name]
	if obj == nil {
		return
	}
	g.edges[obj] = uses(lp.info, d)
	name := strings.TrimPrefix(rel, "internal/") + "."
	if d.Recv != nil && len(d.Recv.List) == 1 {
		if named := recvNamed(obj.(*types.Func)); named != nil {
			g.methods[named] = append(g.methods[named], obj.(*types.Func))
			name += named.Name() + "."
		}
	}
	name += d.Name.Name
	start := d.Pos()
	if d.Doc != nil {
		start = d.Doc.Pos()
	}
	pos := g.fset.Position(start)
	file, _ := filepath.Rel(g.root, pos.Filename)
	if rootPkg || d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
		g.roots = append(g.roots, obj)
	}
	g.funcs = append(g.funcs, declFunc{
		obj: obj, name: name, file: filepath.ToSlash(file), line: pos.Line,
		lines: g.fset.Position(d.End()).Line - pos.Line + 1,
	})
}

// recvNamed is the type name a method is declared on.
func recvNamed(f *types.Func) types.Object {
	t := f.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// uses lists the objects the identifiers under n resolve to, generic
// instances folded onto their declaration.
func uses(info *types.Info, n ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch o := info.Uses[id].(type) {
			case nil:
			case *types.Func:
				out = append(out, o.Origin())
			case *types.Var:
				out = append(out, o.Origin())
			default:
				out = append(out, o)
			}
		}
		return true
	})
	return out
}
