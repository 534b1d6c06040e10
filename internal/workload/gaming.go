package workload

import (
	"fmt"
	"math/rand"

	"dbp/internal/item"
)

// This file synthesizes the paper's motivating workload, the "gaming"
// scenario: a cloud gaming provider (Sec. I cites GaiKai) dispatching
// play requests to GPU servers. Each game title demands a fixed share of
// a server's GPU; several instances share a server as long as the GPU is
// not saturated; sessions end when the player stops — unknown at start,
// exactly the MinUsageTime DBP model. No public trace of such a system
// exists, so the sessions are synthetic, drawn from a title catalog with
// heavy-tailed session lengths (the documented substitution in
// DESIGN.md).

// gameTitle is one game in the provider's catalog.
type gameTitle struct {
	Name string
	// GPUShare is the fraction of one server's GPU a session needs.
	GPUShare float64
	// Session is the distribution of session lengths (minutes).
	Session Dist
	// Popularity is the relative request rate of the title.
	Popularity float64
}

// defaultCatalog models a provider with four tiers of games. Session
// lengths are bounded Pareto — most sessions are short, some run for
// hours — with a 5-minute minimum and a 300-minute cap, giving mu = 60.
func defaultCatalog() []gameTitle {
	session := func(alpha float64) Dist {
		return paretoDist{Alpha: alpha, Lo: 5, Hi: 300}
	}
	return []gameTitle{
		{Name: "casual-puzzle", GPUShare: 0.125, Session: session(1.8), Popularity: 4},
		{Name: "indie-platformer", GPUShare: 0.25, Session: session(1.5), Popularity: 3},
		{Name: "aaa-shooter", GPUShare: 0.5, Session: session(1.2), Popularity: 2},
		{Name: "open-world-rpg", GPUShare: 0.75, Session: session(1.0), Popularity: 1},
	}
}

// gamingConfig describes a session-generation run.
type gamingConfig struct {
	Catalog []gameTitle
	// Rate is the request arrival rate (sessions per minute), a Poisson
	// process across the whole catalog.
	Rate float64
	N    int
	Seed int64
}

// MuBound returns the max/min session length ratio over the catalog.
func (c gamingConfig) MuBound() float64 {
	lo, hi := 0.0, 0.0
	for i, t := range c.Catalog {
		tlo, thi := t.Session.Bounds()
		if i == 0 || tlo < lo {
			lo = tlo
		}
		if thi > hi {
			hi = thi
		}
	}
	if lo <= 0 {
		return 0
	}
	return hi / lo
}

// gamingSessions generates the play-request stream as a DBP instance:
// item size = the requested title's GPU share, item interval = the
// session. The map reports which title each generated item plays.
func gamingSessions(c gamingConfig) (item.List, map[item.ID]string) {
	if len(c.Catalog) == 0 || c.N <= 0 || c.Rate <= 0 {
		panic(fmt.Sprintf("workload: bad gaming config %+v", c))
	}
	rng := rand.New(rand.NewSource(c.Seed))
	var totalPop float64
	for _, t := range c.Catalog {
		totalPop += t.Popularity
	}
	l := make(item.List, c.N)
	titles := make(map[item.ID]string, c.N)
	now := 0.0
	for i := range l {
		now += rng.ExpFloat64() / c.Rate
		// Pick a title by popularity.
		x := rng.Float64() * totalPop
		t := c.Catalog[len(c.Catalog)-1]
		for _, cand := range c.Catalog {
			x -= cand.Popularity
			if x <= 0 {
				t = cand
				break
			}
		}
		dur := t.Session.Sample(rng)
		id := item.ID(i + 1)
		l[i] = item.Item{ID: id, Size: t.GPUShare, Arrival: now, Departure: now + dur}
		titles[id] = t.Name
	}
	return l, titles
}
