package dbp

import (
	"os"
	"regexp"
	"slices"
	"testing"
)

// TestDocsListEveryCommand keeps the two module tables honest: the cmd/*
// rows of the README module table and of DESIGN.md §4 must be exactly the
// directories under cmd/, so adding or deleting a binary without touching
// both tables fails the suite.
func TestDocsListEveryCommand(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range entries {
		if e.IsDir() {
			want = append(want, "cmd/"+e.Name())
		}
	}
	row := regexp.MustCompile("(?m)^\\| `(cmd/[^`]+)` \\|")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, m := range row.FindAllSubmatch(text, -1) {
			got = append(got, string(m[1]))
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s lists commands %v, cmd/ holds %v", doc, got, want)
		}
	}
}
