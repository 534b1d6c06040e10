package dbp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
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

// TestInternalNamesHaveAUser holds internal/ to the root's rule: every
// exported top-level name in a non-test file of an internal package is
// used as pkg.Name by a non-test file of another package (bench/, cmd/
// and examples/ count), or is listed in keptNames with its reason. A
// name only its own package or its tests use is unexported.
func TestInternalNamesHaveAUser(t *testing.T) {
	used := map[string]bool{} // "pkg.Name", pkg the directory under internal/
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		imported := map[string]string{} // local name -> package under internal/
		for _, spec := range file.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			pkg, ok := strings.CutPrefix(p, "dbp/internal/")
			if !ok {
				continue
			}
			local := filepath.Base(p)
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imported[local] = pkg
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imported[x.Name] != "" {
					used[imported[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	declared := map[string]bool{}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg := filepath.ToSlash(strings.TrimPrefix(path, "internal"+string(filepath.Separator)))
		for name := range exportedDecls(t, path) {
			key := pkg + "." + name
			declared[key] = true
			if !used[key] && keptNames[key] == "" {
				unused = append(unused, key)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported internal names with no user in another package's non-test code (unexport them, or keep them in keptNames with a reason): %v", len(unused), unused)
	}
	for key := range keptNames {
		if !declared[key] || used[key] {
			t.Errorf("keptNames lists %s, which is not declared or has a user", key)
		}
	}
}

// keptNames are the exported internal names that no other package
// selects, each with the reason that keeps it exported: it is named in
// the signature of an exported name that has a user (a parameter, result
// or field type, or an error value an exported function returns), or
// README.md or DESIGN.md documents it as wire or WAL protocol. The five
// workload names marked "oracle" have neither reason: the cross-engine
// equivalence suite (internal/packing/equivalence_test.go), which is kept
// byte-for-byte, names them.
var keptNames = map[string]string{
	"analysis.BinPeriods":    "field type of Decomposition.Periods",
	"analysis.BinSubperiods": "result of SubperiodsOf",
	"analysis.Decomposition": "result of Decompose",
	"analysis.LGroup":        "result of BuildLGroups",
	"analysis.Subperiod":     "field type of BinSubperiods.Subperiods",

	"bins.JobState": "field type of ServerState.Active",

	"item.Event": "result of List.Events",
	"item.Kind":  "field type of Event.Kind",
	"item.Step":  "result of List.Steps",

	"load.HTTPTarget":      "result of NewHTTP",
	"load.OpReport":        "field type of Report.Ops",
	"load.PhaseReport":     "field type of Report.Phases",
	"load.RampProbe":       "field type of RampResult.Probes",
	"load.RampResult":      "result of RampSearch",
	"load.ReportConfig":    "field type of Report.Config",
	"load.Script":          "result of GenerateScript, field type of Options.Script",
	"load.ShardSkew":       "field type of Report.ShardSkew",
	"load.TransportConfig": "field type of ReportConfig.Transport",
	"load.WireTarget":      "result of NewWire",

	"packing.Arrival":             "parameter of Algorithm.Place",
	"packing.EngineKind":          "field type of Options.Engine, parameter of NewStreamEngine",
	"packing.ErrServer":           "the server index Stream.Arrive and Depart return with an error",
	"packing.ErrSnapshotMismatch": "error RestoreStream returns",
	"packing.Fleet":               "parameter of Algorithm.Place",
	"packing.PolicyState":         "field type of Snapshot.PolicyState",

	"serve.Departure":       "result of Dispatcher.Depart",
	"serve.DurabilityStats": "field type of Stats.Durability",
	"serve.ErrClosed":       "error Dispatcher.Arrive and Depart return once closed",
	"serve.ErrDurability":   "error Dispatcher.Arrive and Depart return once a journal failed",
	"serve.Event":           "result of Dispatcher.ShardEvents",
	"serve.Placement":       "result of Dispatcher.Arrive",
	"serve.ShardStats":      "field type of Stats.PerShard",

	"trace.Stats": "result of Summarize",

	"wal.ErrCorrupt":  "error Log.Replay and OpenStore wrap for a corrupt record",
	"wal.FsyncPolicy": "result of ParseFsyncPolicy, field type of Options.Fsync",
	"wal.Kind":        "field type of Record.Kind",
	"wal.Stats":       "result of Log.Stats",

	"wire.ErrBadDim":       "error DecodeOp returns",
	"wire.ErrBadFlags":     "error DecodeOp returns",
	"wire.ErrBadKind":      "error DecodeOp returns",
	"wire.ErrBadMagic":     "error Dial returns",
	"wire.ErrClientClosed": "error Client.Arrive and Depart return after Close",
	"wire.ErrFrameSize":    "error Dial returns",
	"wire.ErrGoAway":       "error Client.Arrive and Depart return once the server drains",
	"wire.ErrShortBuffer":  "error DecodeOp, DecodeResult and Dial return",
	"wire.ErrVersion":      "error Dial returns",

	"workload.BurstyConfig":   "oracle: equivalence_test.go",
	"workload.Config":         "result of UniformConfig",
	"workload.Dist":           "field type of Config.Size and Config.Duration",
	"workload.ErrScalarOnly":  "error FromSpec returns",
	"workload.GenerateBursty": "oracle: equivalence_test.go",
	"workload.GenerateVec":    "oracle: equivalence_test.go",
	"workload.Instance":       "result of MustLookup",
	"workload.KindTrace":      "oracle: equivalence_test.go",
	"workload.Param":          "result of Scenario.Params",
	"workload.ParamKind":      "field type of Param.Kind",
	"workload.Request":        "parameter of Scenario.Generate",
	"workload.Scenario":       "result of Statistical",
	"workload.ScenarioKind":   "result of Scenario.Kind",
	"workload.Scenarios":      "oracle: equivalence_test.go",
}
