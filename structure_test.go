package ftlq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The static-structure test: three checks over the module's non-test Go
// source, using only go/parser and go/ast.
//
//  1. Reachability. Every non-test function is reached by name from a main
//     package (the commands and examples), from the exported API of this
//     package, or from a method the standard library calls through an
//     interface. Matching by name over-approximates the call graph, so a
//     live function is never flagged; an unreached one must be on unreached
//     with a reason.
//  2. Package-level state. Every package-level var is an error sentinel, a
//     sync.Pool, a `_ = …` interface assertion, a read-only table, or on
//     packageState with a reason.
//  3. The process registry. metrics.Default() is named only by its four
//     owners, benchmark/ included.

// unreached lists the non-test functions that no command, example or
// exported ftlq function reaches, each with why it stays. A function that
// only these reach needs no entry of its own. The reason's prefix is
// checked:
//   - "benchmark:" — benchmark/ binds it (ROADMAP item 15); the name must
//     still appear under benchmark/.
//   - "wall:" — the wall-clock load-test backend and its client, which only
//     tests drive (ROADMAP item 28).
//   - "oracle: FILE" — another package's test FILE uses it, so it cannot
//     move into a _test.go file; FILE must still name it.
var unreached = map[string]string{
	"internal/games.NewBellSampler":                 "benchmark: trace/games.go times the Bell sampler (item 15)",
	"internal/games.OptimalColocationAngles":        "benchmark: trace/games.go builds the sampler's angles (item 15)",
	"internal/games.RandomGraphXORGame":             "benchmark: trace/games.go draws its solver inputs (item 15)",
	"internal/games.ResetSolveCache":                "benchmark: trace/games.go times cold solves (item 15)",
	"internal/games.XORGame.ClassicalValueUncached": "benchmark: trace/games.go times the uncached classical solve (item 15)",
	"internal/games.XORGame.QuantumValueUncached":   "benchmark: trace/games.go times the uncached quantum solve (item 15)",
	"internal/admission.Controller.Admit":           "benchmark: trace/admission.go times the gate alone (item 15)",
	"internal/admission.Limiter.TryAcquire":         "benchmark: trace/admission.go times the limiter alone (item 15)",
	"internal/admission.Limiter.Release":            "benchmark: trace/admission.go times the limiter alone (item 15)",
	"internal/serve.Server.Decide":                  "benchmark: trace/serve.go drives the in-process decide (item 15)",
	"internal/serve.Server.DecideBatch":             "benchmark: trace/serve.go drives the in-process batch (item 15)",
	"internal/core.Session.ExpectedWinRate":         "oracle: integration_test.go (TestIntegrationSourceToSessionToGame predicts the measured win rate)",
	"internal/games.BiasedColocationGame":           "oracle: internal/loadbalance/loadbalance_test.go (TestBiasedWorkloadTunedStrategyWins)",
	"internal/qsim.State.SampleOutcomes":            "oracle: internal/games/export_test.go (bellSampleOracle, ghzSampleOracle)",
	"internal/qsim.Density.SampleOutcomes":          "oracle: internal/qkd/export_test.go (measurePairOracle)",
	"internal/qsim.Density.MeasureQubit":            "oracle: internal/qkd/export_test.go (measurePairOracle)",
	"internal/stats.Proportion.Contains95":          "oracle: internal/core/core_test.go (TestSessionQuantumWinRate)",
	"internal/stats.BatchMeans.Batches":             "oracle: internal/loadbalance/shard_test.go (TestShardedBatchMeansMergeExact)",
	"internal/loadtest.RunWall":                     "wall: the wall backend; cmd/qcoordd's drain and overload tests drive it (item 28)",
	"internal/loadtest.RunWallPlan":                 "wall: the wall backend's replay loop (item 28)",
	"internal/serve.NewClient":                      "wall: the typed client the wall backend and cmd/qcoordd's tests use (item 28)",
	"internal/serve.Client.Decide":                  "wall: the typed client's decide (item 28)",
	"internal/serve.Client.DecideBatch":             "wall: the typed client's batch decide (item 28)",
}

// packageState lists the package-level vars that hold process-wide mutable
// state, each with why it stays.
var packageState = map[string]string{
	"internal/metrics.defaultRegistry":   "the process registry cmd/repro snapshots for -metrics (item 22)",
	"internal/games.solveCache":          "the process-wide solve cache (item 13)",
	"internal/games.classicalHits":       "a solve-cache counter in the process registry (item 13)",
	"internal/games.classicalMisses":     "a solve-cache counter in the process registry (item 13)",
	"internal/games.classicalUnretained": "a solve-cache counter in the process registry (item 13)",
	"internal/games.quantumHits":         "a solve-cache counter in the process registry (item 13)",
	"internal/games.quantumMisses":       "a solve-cache counter in the process registry (item 13)",
	"internal/games.quantumUnretained":   "a solve-cache counter in the process registry (item 13)",
}

// registryOwners are the only non-test files that may name
// metrics.Default(): the metrics package, cmd/repro's -metrics artifact, the
// games solve cache and core's health-gauge mirror.
var registryOwners = []string{"internal/metrics/", "cmd/repro/", "internal/games/solvecache.go", "internal/core/health.go"}

// stdlibCalled are method names the standard library calls through an
// interface (fmt, errors, net/http, encoding/json, sort, container/heap), so
// a method of that name is live without a call in this module.
var stdlibCalled = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true, "MarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

type srcFile struct {
	path    string
	dir     string // package directory relative to the module root
	bench   bool   // part of the benchmark/ module
	ast     *ast.File
	imports map[string]string // local name → package directory ("std:" + path outside the module)
}

type funcDecl struct {
	key  string // dir.Name or dir.Recv.Name
	file *srcFile
	decl *ast.FuncDecl
}

type module struct {
	files   []*srcFile
	funcs   []*funcDecl
	byName  map[string][]*funcDecl // package-level functions by dir.Name
	methods map[string][]*funcDecl // methods by Name
}

// loadModule parses every non-test Go file of the repository, the
// benchmark/ module included (marked), testdata and build outputs excluded.
func loadModule(t *testing.T) *module {
	t.Helper()
	fset := token.NewFileSet()
	m := &module{byName: map[string][]*funcDecl{}, methods: map[string][]*funcDecl{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || path == "benchmark/out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		sf := &srcFile{path: path, dir: filepath.ToSlash(filepath.Dir(path)), bench: strings.HasPrefix(path, "benchmark/"), ast: f, imports: map[string]string{}}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			dir, ok := strings.CutPrefix(p, "repro/")
			if !ok {
				dir = "std:" + p
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			sf.imports[name] = dir
		}
		m.files = append(m.files, sf)
		if sf.bench {
			return nil
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			d := &funcDecl{file: sf, decl: fd}
			if fd.Recv == nil {
				d.key = sf.dir + "." + fd.Name.Name
				m.byName[d.key] = append(m.byName[d.key], d)
			} else {
				d.key = sf.dir + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				m.methods[fd.Name.Name] = append(m.methods[fd.Name.Name], d)
			}
			m.funcs = append(m.funcs, d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// recvName is a receiver's type name, without pointer or type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// walker marks functions reached by name from a growing set of roots.
type walker struct {
	m       *module
	reached map[string]bool
	queue   []*funcDecl
}

func (w *walker) mark(ds []*funcDecl) {
	for _, d := range ds {
		if !w.reached[d.key] {
			w.reached[d.key] = true
			w.queue = append(w.queue, d)
		}
	}
}

// visit marks every function n names: a bare identifier names a function of
// its own package, pkg.Name a function of an imported package, and any
// x.Name every method called Name.
func (w *walker) visit(sf *srcFile, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			w.mark(w.m.byName[sf.dir+"."+x.Name])
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if dir, ok := sf.imports[id.Name]; ok {
					w.mark(w.m.byName[dir+"."+x.Sel.Name])
				}
			}
			w.mark(w.m.methods[x.Sel.Name])
		}
		return true
	})
}

// drain visits the body of every marked function until nothing new is
// reached.
func (w *walker) drain() {
	for len(w.queue) > 0 {
		d := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		w.visit(d.file, d.decl)
	}
}

// reach returns what a binary reaches: the walk from main and init
// functions, package-level initializers, this package's exported API and
// the stdlib-called methods.
func (m *module) reach() *walker {
	w := &walker{m: m, reached: map[string]bool{}}
	for _, d := range m.funcs {
		name := d.decl.Name.Name
		if d.decl.Recv == nil && (name == "init" || name == "main" && d.file.ast.Name.Name == "main") ||
			d.file.dir == "." && ast.IsExported(name) ||
			d.decl.Recv != nil && stdlibCalled[name] {
			w.mark([]*funcDecl{d})
		}
	}
	for _, sf := range m.files {
		if sf.bench {
			continue
		}
		for _, decl := range sf.ast.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				w.visit(sf, gd)
			}
		}
	}
	w.drain()
	return w
}

func TestNonTestCodeIsReached(t *testing.T) {
	m := loadModule(t)
	w := m.reach()
	declared := map[string]*funcDecl{}
	for _, d := range m.funcs {
		declared[d.key] = d
	}
	for key := range unreached {
		if d := declared[key]; d == nil {
			t.Errorf("unreached lists %s, which is not declared", key)
		} else if w.reached[key] {
			t.Errorf("unreached lists %s, which a binary reaches; drop the entry", key)
		}
	}
	// What only an allowlisted function reaches is its helper.
	for key := range unreached {
		if d := declared[key]; d != nil {
			w.mark([]*funcDecl{d})
		}
	}
	w.drain()
	var orphans []string
	for _, d := range m.funcs {
		if !w.reached[d.key] {
			orphans = append(orphans, d.key)
		}
	}
	sort.Strings(orphans)
	for _, key := range orphans {
		t.Errorf("%s: no command, example or exported ftlq function reaches it; delete it, move it into a _test.go file, or list it in unreached with a reason", key)
	}

	bench := benchmarkNames(m)
	for key, reason := range unreached {
		name := key[strings.LastIndex(key, ".")+1:]
		switch kind, rest, _ := strings.Cut(reason, ":"); kind {
		case "benchmark":
			if !bench[name] {
				t.Errorf("unreached lists %s as bound by benchmark/, which no longer names it", key)
			}
		case "oracle":
			file := strings.Fields(rest)[0]
			src, err := os.ReadFile(file)
			if err != nil || !strings.HasSuffix(file, "_test.go") || !regexp.MustCompile(`\b`+name+`\b`).Match(src) {
				t.Errorf("unreached lists %s as an oracle for %s, which does not use it", key, file)
			}
		case "wall":
		default:
			t.Errorf("unreached lists %s with reason %q; want a benchmark:, wall: or oracle: reason", key, reason)
		}
	}
}

// benchmarkNames is the set of identifiers in benchmark/'s non-test source.
func benchmarkNames(m *module) map[string]bool {
	names := map[string]bool{}
	for _, sf := range m.files {
		if sf.bench {
			ast.Inspect(sf.ast, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					names[id.Name] = true
				}
				return true
			})
		}
	}
	return names
}

func TestPackageStateIsDeclared(t *testing.T) {
	m := loadModule(t)
	writes := packageVarWrites(m)
	seen := map[string]bool{}
	for _, sf := range m.files {
		if sf.bench {
			continue
		}
		for _, decl := range sf.ast.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					key := sf.dir + "." + id.Name
					seen[key] = true
					var value ast.Expr
					if i < len(vs.Values) {
						value = vs.Values[i]
					}
					_, listed := packageState[key]
					switch kind := varKind(sf, id.Name, vs.Type, value, writes[key]); {
					case kind != "" && listed:
						t.Errorf("%s is %s; drop it from packageState", key, kind)
					case kind == "" && !listed:
						t.Errorf("%s is process-wide mutable state: pass it as an argument, or list it in packageState with a reason", key)
					}
				}
			}
		}
	}
	for key := range packageState {
		if !seen[key] {
			t.Errorf("packageState lists %s, which is not declared", key)
		}
	}
}

// varKind names the harmless kind of a package-level var, or "" if it is
// none of them.
func varKind(sf *srcFile, name string, typ, value ast.Expr, written bool) string {
	switch {
	case name == "_":
		return "an interface assertion"
	case isSyncPool(sf, typ) || isSyncPool(sf, compositeType(value)):
		return "a sync.Pool"
	case written:
		return ""
	case strings.HasPrefix(strings.ToLower(name), "err") && value != nil:
		return "an error sentinel"
	case value != nil && isStatic(sf, value):
		return "a read-only table"
	}
	return ""
}

func compositeType(e ast.Expr) ast.Expr {
	if cl, ok := e.(*ast.CompositeLit); ok {
		return cl.Type
	}
	return nil
}

func isSyncPool(sf *srcFile, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && sf.imports[id.Name] == "std:sync" && sel.Sel.Name == "Pool"
}

// isStatic reports whether e is built only from literals, names, operators
// and standard-library calls on such arguments: a value no caller can
// change by constructing it.
func isStatic(sf *srcFile, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BasicLit, *ast.Ident:
		return true
	case *ast.SelectorExpr:
		id, ok := x.X.(*ast.Ident)
		return ok && sf.imports[id.Name] != ""
	case *ast.ParenExpr:
		return isStatic(sf, x.X)
	case *ast.UnaryExpr:
		return x.Op != token.AND && isStatic(sf, x.X)
	case *ast.BinaryExpr:
		return isStatic(sf, x.X) && isStatic(sf, x.Y)
	case *ast.KeyValueExpr:
		return isStatic(sf, x.Key) && isStatic(sf, x.Value)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if !isStatic(sf, el) {
				return false
			}
		}
		return true
	case *ast.CallExpr:
		sel, ok := x.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		if id, ok := sel.X.(*ast.Ident); !ok || !strings.HasPrefix(sf.imports[id.Name], "std:") {
			return false
		}
		for _, a := range x.Args {
			if !isStatic(sf, a) {
				return false
			}
		}
		return true
	}
	return false
}

// packageVarWrites returns the package-level names that some function
// assigns, increments, ranges into or takes the address of, keyed
// dir.Name. A local variable of the same name counts too, which errs on the
// side of flagging.
func packageVarWrites(m *module) map[string]bool {
	writes := map[string]bool{}
	for _, sf := range m.files {
		if sf.bench {
			continue
		}
		root := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok {
						if dir, ok := sf.imports[id.Name]; ok {
							writes[dir+"."+x.Sel.Name] = true
							return
						}
					}
					e = x.X
				case *ast.Ident:
					writes[sf.dir+"."+x.Name] = true
					return
				default:
					return
				}
			}
		}
		for _, decl := range sf.ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					if x.Tok != token.DEFINE {
						for _, l := range x.Lhs {
							root(l)
						}
					}
				case *ast.IncDecStmt:
					root(x.X)
				case *ast.RangeStmt:
					if x.Tok == token.ASSIGN {
						root(x.Key)
						if x.Value != nil {
							root(x.Value)
						}
					}
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						root(x.X)
					}
				}
				return true
			})
		}
	}
	return writes
}

func TestProcessRegistryHasFourOwners(t *testing.T) {
	for _, sf := range loadModule(t).files {
		owner := false
		for _, o := range registryOwners {
			owner = owner || strings.HasPrefix(sf.path, o)
		}
		if owner {
			continue
		}
		ast.Inspect(sf.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Default" {
				if id, ok := sel.X.(*ast.Ident); ok && sf.imports[id.Name] == "internal/metrics" {
					t.Errorf("%s names metrics.Default(); the process registry has four owners: %v", sf.path, registryOwners)
				}
			}
			return true
		})
	}
}
