package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick-seed1.md from the current code")

// TestQuickTablesGolden pins every experiment's quick tables, in registry
// order, to a committed rendering: a refactor that must leave the E-tables
// byte-identical is checked here rather than by diffing dbpexp output by
// hand. The layout is dbpexp -quick -md's without its "generated in"
// timing lines. Run with -update to rewrite the golden file after a change
// that is meant to move a table.
func TestQuickTablesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures fuse multiply-add, which may move the last
		// printed digit of a float.
		t.Skipf("golden tables are recorded on amd64, not %s", runtime.GOARCH)
	}
	var sb strings.Builder
	cfg := Config{Quick: true, Seed: 1}
	for _, e := range All() {
		fmt.Fprintf(&sb, "## %s: %s\n\n", e.ID, e.Title)
		fmt.Fprintf(&sb, "*Claim:* %s\n\n", e.Claim)
		for _, tb := range e.Run(cfg) {
			fmt.Fprintln(&sb, tb.Markdown())
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "quick-seed1.md")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("quick tables differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("quick tables differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
}
