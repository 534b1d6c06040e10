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
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
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
					names = append(names, d.Name.Name)
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, n := range spec.(*ast.ValueSpec).Names {
						if n.IsExported() {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
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
