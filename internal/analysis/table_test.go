package analysis

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("E0: demo", "algo", "ratio", "bins")
	tb.AddRow("FirstFit", 1.2345678, 12)
	tb.AddRow("NextFit", 2.0, 25)
	tb.AddNote("seed %d", 42)
	out := tb.String()
	for _, want := range []string{"E0: demo", "algo", "FirstFit", "1.235", "NextFit", "note: seed 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if len(tb.rows) != 2 {
		t.Fatal("row count")
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| FirstFit |") || !strings.Contains(md, "**E0: demo**") {
		t.Fatalf("markdown:\n%s", md)
	}
}
