package dbp

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
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"dbp/internal/serve"
)

// TestDocsListEveryCommand keeps the module tables honest: the cmd/*
// rows of the README module table and of DESIGN.md §4 must be exactly the
// directories under cmd/, and the internal/* rows of DESIGN.md §4 exactly
// the packages under internal/, so adding or deleting a binary or a
// package without touching the tables fails the suite.
func TestDocsListEveryCommand(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var cmds []string
	for _, e := range entries {
		if e.IsDir() {
			cmds = append(cmds, "cmd/"+e.Name())
		}
	}
	var pkgs []string
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if dir := filepath.ToSlash(filepath.Dir(path)); !slices.Contains(pkgs, dir) {
				pkgs = append(pkgs, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(pkgs)
	for _, c := range []struct {
		doc, prefix string
		want        []string
	}{
		{"README.md", "cmd/", cmds},
		{"DESIGN.md", "cmd/", cmds},
		{"DESIGN.md", "internal/", pkgs},
	} {
		text, err := os.ReadFile(c.doc)
		if err != nil {
			t.Fatal(err)
		}
		row := regexp.MustCompile("(?m)^\\| `(" + c.prefix + "[^`]+)` \\|")
		var got []string
		for _, m := range row.FindAllSubmatch(text, -1) {
			got = append(got, string(m[1]))
		}
		slices.Sort(got)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s lists %v, the tree holds %v", c.doc, got, c.want)
		}
	}
}

// TestDocsListEveryCode keeps the README's error-code table honest: its
// rows with a wire byte must be exactly the serve.Class table — code,
// HTTP status and byte — so a class cannot land undocumented.
func TestDocsListEveryCode(t *testing.T) {
	var want []string
	for c := serve.Class(1); int(c) < serve.NumClasses; c++ {
		want = append(want, fmt.Sprintf("%s %d %d", c.Code(), c.HTTPStatus(), c))
	}
	text, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\| ([0-9]+) \\| ([0-9]+) \\|")
	var got []string
	for _, m := range row.FindAllSubmatch(text, -1) {
		got = append(got, fmt.Sprintf("%s %s %s", m[1], m[2], m[3]))
	}
	if !slices.Equal(got, want) {
		t.Errorf("README error codes (code HTTP byte) %v, serve.Class table %v", got, want)
	}
}

// TestRootNamesHaveAUser keeps the root API to names something uses:
// every exported function and var of package dbp must appear as
// dbp.<Name> in examples/, cmd/ or example_test.go, or as `<Name>` or
// `dbp.<Name>` in README.md or doc.go, so a facade name with no caller
// cannot land or linger. Types are not checked: a type stays while a
// kept signature names it.
func TestRootNamesHaveAUser(t *testing.T) {
	var names []string
	for name, tok := range exportedDecls(t, ".") {
		if tok == token.FUNC || tok == token.VAR {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	var code, docs strings.Builder
	read := func(sb *strings.Builder, path string) {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(text)
	}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				read(&code, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	read(&code, "example_test.go")
	read(&docs, "README.md")
	read(&docs, "doc.go")
	var unused []string
	for _, name := range names {
		called := regexp.MustCompile(`\bdbp\.` + name + `\b`).MatchString(code.String())
		listed := regexp.MustCompile("`(dbp\\.)?" + name + "`").MatchString(docs.String())
		if !called && !listed {
			unused = append(unused, name)
		}
	}
	if len(unused) > 0 {
		t.Errorf("root names with no user in examples/, cmd/, example_test.go, README.md or doc.go: %v", unused)
	}
}

// exportedDecls returns the exported top-level names that the non-test
// Go files of dir declare, each with its declaration's token: FUNC for a
// function (methods are not top-level names), else the TYPE, VAR or CONST
// of its declaration.
func exportedDecls(t *testing.T, dir string) map[string]token.Token {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]token.Token{}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					names[d.Name.Name] = token.FUNC
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names[s.Name.Name] = d.Tok
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names[n.Name] = d.Tok
							}
						}
					}
				}
			}
		}
	}
	return names
}

// TestInternalNamesHaveAUser and TestInternalMethodsHaveAUser hold
// every declaration of internal/ and cmd/ to a user, by resolved types
// rather than names: the first its package-level names, the second its
// methods, both from one load of auditedDeclarations. The non-test
// files of the root and bench/ modules are type-checked against the
// export data `go list -export` builds (so build tags apply), and every
// use is keyed by where the object it resolves to is declared. Each
// package-level func, var, const and type, and each method, that a
// non-test file of internal/ or cmd/ declares must be:
//
//   - used: some non-test file of either module (bench/, examples/ and
//     the root included) uses it outside its own declaration, a type's
//     own methods counting as its declaration; or, for a method, its
//     receiver type implements an interface the module's code names,
//     declares, asserts or converts to (error and interface literals
//     included) and that interface has the method, or, for String, an
//     operand of its type goes to a fmt function, which calls it
//     through fmt.Stringer;
//   - exported only for another package: an exported internal
//     package-level name has a user in another package, or is a type
//     reachable from one that has, as a field, parameter, result or
//     element type of it, transitively; an exported method of
//     internal/ has a user in another package, or an interface or a
//     fmt call reaches it.
//
// keptNames and keptMethods list, with their reasons, the few the types
// cannot show. A declaration only tests use moves into a test file; a
// name only its own package uses is unexported.
func TestInternalNamesHaveAUser(t *testing.T) {
	byName := auditedDeclarations(t)
	var dead, lonely []string
	for name, d := range byName {
		switch {
		case d.method:
		case !d.used:
			dead = append(dead, name)
		case d.exported && !d.outside && keptNames[name] == "":
			lonely = append(lonely, name)
		}
	}
	slices.Sort(dead)
	slices.Sort(lonely)
	if len(dead) > 0 {
		t.Errorf("%d package-level declarations of internal/ or cmd/ with no use in non-test code (delete them, or move a test-only tool into the tests): %v", len(dead), dead)
	}
	if len(lonely) > 0 {
		t.Errorf("%d exported internal names that no other package uses or reaches through a signature (unexport them, or keep them in keptNames with a reason): %v", len(lonely), lonely)
	}
	for name := range keptNames {
		if d := byName[name]; d == nil || !d.exported || d.outside {
			t.Errorf("keptNames lists %s, which is not declared, not exported, or has a user", name)
		}
	}
}

// TestInternalMethodsHaveAUser is the method half of the audit
// TestInternalNamesHaveAUser describes.
func TestInternalMethodsHaveAUser(t *testing.T) {
	byName := auditedDeclarations(t)
	var dead, lonely []string
	for name, d := range byName {
		switch {
		case !d.method || keptMethods[name] != "":
		case !d.used:
			dead = append(dead, name)
		case d.exported && !d.outside && !d.iface:
			lonely = append(lonely, name)
		}
	}
	slices.Sort(dead)
	slices.Sort(lonely)
	if len(dead) > 0 {
		t.Errorf("%d methods of internal/ or cmd/ with no use in non-test code and no interface the module uses (delete them, move a test-only one into the tests, or keep it in keptMethods with a reason): %v", len(dead), dead)
	}
	if len(lonely) > 0 {
		t.Errorf("%d exported methods of internal/ that only their own package calls and no interface or fmt call reaches (unexport them, or keep them in keptMethods with a reason): %v", len(lonely), lonely)
	}
	for name := range keptMethods {
		if d := byName[name]; d == nil || !d.method || d.used {
			t.Errorf("keptMethods lists %s, which is not a declared method or has a use", name)
		}
	}
}

// audit caches auditedDeclarations' result, so the two audit tests
// load and type-check the modules once.
var audit struct {
	sync.Mutex
	byName map[string]*audited
}

// auditedDeclarations returns the audited declarations of the root and
// bench/ modules keyed by name.
func auditedDeclarations(t *testing.T) map[string]*audited {
	t.Helper()
	audit.Lock()
	defer audit.Unlock()
	if audit.byName == nil {
		byName := map[string]*audited{}
		for _, d := range loadDeclarations(t, ".", "bench") {
			byName[d.name] = d
		}
		audit.byName = byName
	}
	return audit.byName
}

// keptNames are the exported internal names that no other package uses
// and no used signature reaches, each with the reason that keeps it
// exported: an error value a used function returns, or a value the
// package documents as part of its API.
var keptNames = map[string]string{
	"packing.ErrServer":           "the server index Stream.Arrive and Depart return with an error",
	"packing.ErrSnapshotMismatch": "error RestoreStream returns",

	"serve.Event":         "the JSON row of GET /v1/journal, which NewHandler documents as Placement is /v1/arrive's",
	"serve.ErrClosed":     "error Dispatcher.Arrive and Depart return once closed",
	"serve.ErrDurability": "error Dispatcher.Arrive and Depart return once a journal failed",

	"wal.ErrCorrupt": "error Log.Replay and OpenStore wrap for a corrupt record",

	"wire.ErrBadDim":       "error DecodeOp returns",
	"wire.ErrBadFlags":     "error DecodeOp returns",
	"wire.ErrBadKind":      "error DecodeOp returns",
	"wire.ErrBadMagic":     "error Dial returns",
	"wire.ErrClientClosed": "error Client.Arrive and Depart return after Close",
	"wire.ErrFrameSize":    "error Dial returns",
	"wire.ErrGoAway":       "error Client.Arrive and Depart return once the server drains",
	"wire.ErrShortBuffer":  "error DecodeOp, DecodeResult and Dial return",
	"wire.ErrVersion":      "error Dial returns",

	"workload.ErrScalarOnly": "error FromSpec returns",
}

// keptMethods are the internal methods that nothing in the module calls,
// each with the reason that keeps it.
var keptMethods = map[string]string{
	"packing.streamError.Unwrap": "errors.Is and errors.As call it",
	"wire.OpError.Unwrap":        "errors.Is and errors.As call it",
	"wire.Client.Ping":           "the client side of the Ping/Pong frame DESIGN.md documents",
}

// audited is one declaration the audit holds to a user,
// and what loadDeclarations found of its users.
type audited struct {
	name     string     // "pkg.Name" or "pkg.Type.Method", pkg the path under internal/ (or cmd/x)
	exported bool       // an exported package-level name or method of internal/
	method   bool       // a method, not a package-level name
	iface    bool       // a method an interface or a fmt call reaches
	own      []ast.Node // its own declaration, and a type's methods
	used     bool       // a use outside own, or an interface or fmt call that reaches the method
	outside  bool       // a use in another package, or a type reachable from what one uses
}

// listedPackage is the part of `go list -json` a type check needs.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	DepOnly                 bool
}

// loadDeclarations type-checks the non-test files of each module
// directory's own dbp packages, in dependency order (so a declaration is
// recorded before any other package uses it), and resolves every use
// among them. It returns the audited declarations keyed by where they
// are declared.
func loadDeclarations(t *testing.T, modules ...string) map[string]*audited {
	t.Helper()
	fset := token.NewFileSet()
	// at keys an object by where it is declared: export data keeps the
	// file and line of a declaration but not its column, and names the
	// file by a path -trimpath rewrites.
	at := func(obj types.Object) string {
		p := fset.Position(obj.Pos())
		return fmt.Sprintf("%s/%s:%d:%s", obj.Pkg().Path(), filepath.Base(p.Filename), p.Line, obj.Name())
	}
	decls := map[string]*audited{}
	// reach marks the internal named types an outside user reaches from
	// what it uses, through signatures, exported fields and elements.
	reach := &typeWalker{seen: map[types.Type]bool{}, visit: func(t types.Type) bool {
		named, ok := t.(*types.Named)
		if !ok {
			return true
		}
		if named.Obj().Pkg() == nil || !strings.HasPrefix(named.Obj().Pkg().Path(), "dbp/internal/") {
			return false
		}
		if d := decls[at(named.Obj())]; d != nil {
			d.outside = true
		}
		return true
	}}
	for _, mod := range modules {
		pkgs, imp := listModule(t, fset, mod)
		for _, lp := range pkgs {
			var files []*ast.File
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
			pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
			if err != nil {
				t.Fatalf("type-check %s: %v", lp.ImportPath, err)
			}
			if strings.HasPrefix(pkg.Path(), "dbp/internal/") || strings.HasPrefix(pkg.Path(), "dbp/cmd/") {
				collectDecls(decls, pkg, files, info, at)
			}
			for id, obj := range info.Uses {
				if obj.Pkg() == nil || !ours(obj.Pkg().Path()) {
					continue
				}
				elsewhere := obj.Pkg().Path() != pkg.Path()
				if elsewhere {
					reach.walk(obj.Type())
				}
				d := decls[at(obj)]
				if d == nil || slices.ContainsFunc(d.own, func(n ast.Node) bool { return n.Pos() <= id.Pos() && id.Pos() < n.End() }) {
					continue
				}
				d.used = true
				d.outside = d.outside || elsewhere
			}
			for _, m := range implemented(info) {
				if d := decls[at(m)]; d != nil {
					d.used, d.iface = true, true
				}
			}
		}
	}
	return decls
}

// listModule runs `go list -export -deps -json ./...` in a module
// directory and returns its own dbp packages, in dependency order, with
// an importer that reads the export data of every package they import.
func listModule(t *testing.T, fset *token.FileSet, dir string) ([]listedPackage, types.Importer) {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	export := map[string]string{}
	var own []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		export[p.ImportPath] = p.Export
		if ours(p.ImportPath) && !p.DepOnly {
			own = append(own, p)
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	}
	return own, importer.ForCompiler(fset, "gc", lookup)
}

// ours reports whether an import path is of the dbp modules.
func ours(path string) bool { return path == "dbp" || strings.HasPrefix(path, "dbp/") }

// collectDecls records the audited declarations of one package: its
// package-level names but the blank ones, init and main, and its
// methods, a type's methods counting as part of the type's own
// declaration.
func collectDecls(decls map[string]*audited, pkg *types.Package, files []*ast.File, info *types.Info, at func(types.Object) string) {
	prefix := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), "dbp/internal/"), "dbp/")
	internal := strings.HasPrefix(pkg.Path(), "dbp/internal/")
	add := func(id *ast.Ident, name string, node ast.Node, toplevel bool) {
		decls[at(info.Defs[id])] = &audited{name: prefix + "." + name, exported: internal && id.IsExported(), method: !toplevel, own: []ast.Node{node}}
	}
	var methods []*ast.FuncDecl
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case decl.Recv != nil:
					methods = append(methods, decl)
				case decl.Name.Name != "init" && (decl.Name.Name != "main" || pkg.Name() != "main"):
					add(decl.Name, decl.Name.Name, decl, true)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec.Name.Name, spec, true)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if id.Name != "_" {
								add(id, id.Name, spec, true)
							}
						}
					}
				}
			}
		}
	}
	for _, m := range methods {
		recv := info.Defs[m.Name].Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		owner := recv.(*types.Named).Obj()
		add(m.Name, owner.Name()+"."+m.Name.Name, m, false)
		decls[at(owner)].own = append(decls[at(owner)].own, m)
	}
}

// implemented returns the methods of the module's named types that one
// package's code can reach through an interface: for each interface type
// the package names, declares, asserts or converts to, and each named
// type of the module it mentions that implements it, that type's methods
// of the interface's method set; and the String method of each operand a
// call of a fmt function passes, which fmt reaches through fmt.Stringer.
func implemented(info *types.Info) []*types.Func {
	var ifaces []*types.Interface
	var named []*types.Named
	w := &typeWalker{seen: map[types.Type]bool{}, visit: func(t types.Type) bool {
		switch t := t.(type) {
		case *types.Named:
			if t.Obj().Pkg() != nil && ours(t.Obj().Pkg().Path()) && !types.IsInterface(t) {
				named = append(named, t)
			}
			return types.IsInterface(t)
		case *types.Interface:
			if t.NumMethods() > 0 {
				ifaces = append(ifaces, t)
			}
		}
		return true
	}}
	var found []*types.Func
	for e, tv := range info.Types {
		w.walk(tv.Type)
		call, ok := e.(*ast.CallExpr)
		if !ok {
			continue
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				for _, arg := range call.Args {
					obj, _, _ := types.LookupFieldOrMethod(info.TypeOf(arg), true, nil, "String")
					if m, ok := obj.(*types.Func); ok {
						found = append(found, m)
					}
				}
			}
		}
	}
	for _, objs := range []map[*ast.Ident]types.Object{info.Defs, info.Uses} {
		for _, obj := range objs {
			if obj != nil {
				w.walk(obj.Type())
			}
		}
	}
	for _, t := range named {
		for _, iface := range ifaces {
			if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
				continue
			}
			for i := range iface.NumMethods() {
				obj, _, _ := types.LookupFieldOrMethod(t, true, iface.Method(i).Pkg(), iface.Method(i).Name())
				if fn, ok := obj.(*types.Func); ok {
					found = append(found, fn.Origin())
				}
			}
		}
	}
	return found
}

// typeWalker visits, once each, a type and the types it is built from:
// elements, keys, parameters and results, exported fields and interface
// methods, type arguments and, where visit returns true for a named
// type, its underlying type and its exported methods' signatures.
type typeWalker struct {
	seen  map[types.Type]bool
	visit func(types.Type) bool
}

func (w *typeWalker) walk(t types.Type) {
	if t == nil || w.seen[t] {
		return
	}
	w.seen[t] = true
	descend := w.visit(t)
	switch t := t.(type) {
	case *types.Alias:
		w.walk(types.Unalias(t))
	case *types.Named:
		for i := range t.TypeArgs().Len() {
			w.walk(t.TypeArgs().At(i))
		}
		if descend {
			for i := range t.NumMethods() {
				if t.Method(i).Exported() {
					w.walk(t.Method(i).Type())
				}
			}
			w.walk(t.Underlying())
		}
	case interface{ Elem() types.Type }: // pointer, slice, array, chan, map
		if m, ok := t.(*types.Map); ok {
			w.walk(m.Key())
		}
		w.walk(t.Elem())
	case *types.Signature:
		w.walk(t.Params())
		w.walk(t.Results())
	case *types.Tuple:
		for i := range t.Len() {
			w.walk(t.At(i).Type())
		}
	case *types.Struct:
		for i := range t.NumFields() {
			if t.Field(i).Exported() {
				w.walk(t.Field(i).Type())
			}
		}
	case *types.Interface:
		for i := range t.NumMethods() {
			if t.Method(i).Exported() {
				w.walk(t.Method(i).Type())
			}
		}
	}
}
