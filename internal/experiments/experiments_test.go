package experiments

import (
	"strings"
	"testing"

	"dbp/internal/analysis"
)

type analysisTable = analysis.Table

func TestRegistryCompleteAndOrdered(t *testing.T) {
	exps := All()
	if len(exps) != 16 {
		t.Fatalf("got %d experiments, want 16", len(exps))
	}
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16"}
	for i, e := range exps {
		if e.ID != want[i] {
			t.Fatalf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("%s incomplete", e.ID)
		}
	}
	if _, err := ByID("E7"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown id must error")
	}
}

// Every experiment runs in Quick mode, produces non-empty tables, and
// renders.
func TestAllExperimentsQuick(t *testing.T) {
	cfg := Config{Quick: true, Seed: 7}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(cfg)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				// Markdown writes the header and separator lines, then one
				// "|" line per row.
				if strings.Count("\n"+tb.Markdown(), "\n|") < 3 {
					t.Fatalf("empty table %q", tb.Title)
				}
				out := tb.String()
				if out == "" || !strings.Contains(out, "---") {
					t.Fatalf("table did not render:\n%s", out)
				}
				if tb.Markdown() == "" {
					t.Fatal("markdown did not render")
				}
			}
		})
	}
}

// E1's verdict column must be "yes" on every row: Theorem 1 holds.
func TestE1AllRowsHold(t *testing.T) {
	tables := runE1(Config{Quick: true, Seed: 3})
	out := tables[0].String()
	if strings.Contains(out, "NO") {
		t.Fatalf("Theorem 1 violated somewhere:\n%s", out)
	}
	if !strings.Contains(out, "yes") {
		t.Fatalf("no verdicts rendered:\n%s", out)
	}
}

// E7's verified column must be "yes" on every row.
func TestE7AllRowsVerified(t *testing.T) {
	tables := runE7(Config{Quick: true, Seed: 3})
	out := tables[0].String()
	if strings.Contains(out, "NO") {
		t.Fatalf("proof machinery verification failed:\n%s", out)
	}
}

// Determinism: same config, same rendered output.
func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E6", "E9"} {
		e, _ := ByID(id)
		a := render(e.Run(Config{Quick: true, Seed: 11}))
		b := render(e.Run(Config{Quick: true, Seed: 11}))
		if a != b {
			t.Fatalf("%s not deterministic", id)
		}
	}
}

func render(tables []*analysisTable) string {
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.String())
	}
	return sb.String()
}
