package workload

import (
	"testing"

	"dbp/internal/packing"
)

func TestDefaultCatalogShape(t *testing.T) {
	cat := defaultCatalog()
	if len(cat) != 4 {
		t.Fatalf("catalog size %d", len(cat))
	}
	for _, title := range cat {
		if title.GPUShare <= 0 || title.GPUShare > 1 {
			t.Errorf("%s: GPU share %g out of range", title.Name, title.GPUShare)
		}
		lo, hi := title.Session.Bounds()
		if lo != 5 || hi != 300 {
			t.Errorf("%s: session bounds [%g, %g]", title.Name, lo, hi)
		}
	}
}

func TestSessionsValidAndDeterministic(t *testing.T) {
	cfg := gamingConfig{Catalog: defaultCatalog(), Rate: 0.5, N: 300, Seed: 9}
	l, titles := gamingSessions(cfg)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(l) != 300 || len(titles) != 300 {
		t.Fatalf("generated %d items, %d titles", len(l), len(titles))
	}
	if mu := l.Mu(); mu > cfg.MuBound() {
		t.Fatalf("realized mu %g exceeds catalog bound %g", mu, cfg.MuBound())
	}
	if cfg.MuBound() != 60 {
		t.Fatalf("default catalog mu bound = %g, want 60", cfg.MuBound())
	}
	l2, _ := gamingSessions(cfg)
	for i := range l {
		if l[i].ID != l2[i].ID || l[i].Size != l2[i].Size ||
			l[i].Arrival != l2[i].Arrival || l[i].Departure != l2[i].Departure {
			t.Fatal("same seed must reproduce sessions")
		}
	}
	// Sizes must come from the catalog.
	valid := map[float64]bool{0.125: true, 0.25: true, 0.5: true, 0.75: true}
	for _, it := range l {
		if !valid[it.Size] {
			t.Fatalf("item size %g not a catalog GPU share", it.Size)
		}
	}
}

func TestSessionsPopularityBias(t *testing.T) {
	l, titles := gamingSessions(gamingConfig{Catalog: defaultCatalog(), Rate: 1, N: 4000, Seed: 4})
	counts := map[string]int{}
	for _, it := range l {
		counts[titles[it.ID]]++
	}
	if counts["casual-puzzle"] <= counts["open-world-rpg"] {
		t.Fatalf("popularity weighting broken: %v", counts)
	}
}

func TestSessionsDispatchable(t *testing.T) {
	l, _ := gamingSessions(gamingConfig{Catalog: defaultCatalog(), Rate: 0.2, N: 200, Seed: 2})
	res, err := packing.Run(packing.NewFirstFit(), l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.NumBins() == 0 {
		t.Fatal("no servers used")
	}
}

func TestSessionsPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	gamingSessions(gamingConfig{})
}
