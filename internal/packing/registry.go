package packing

import (
	"fmt"
	"sort"
	"strings"
)

// Standard returns a fresh instance of every standard policy studied in
// the experiments, keyed by a stable short name. The map is newly built on
// each call so callers can run the policies concurrently.
func Standard() map[string]Algorithm {
	return map[string]Algorithm{
		"firstfit":       NewFirstFit(),
		"bestfit":        NewBestFit(),
		"worstfit":       NewWorstFit(),
		"lastfit":        NewLastFit(),
		"nextfit":        NewNextFit(),
		"randomfit":      NewRandomFit(1),
		"hybridff":       NewHybridFirstFit(2),
		"hybridff3":      NewHybridFirstFit(3),
		"hybridnextfit":  NewHybridNextFit(2),
		"almostworstfit": NewAlmostWorstFit(),
		"next2fit":       NewNextKFit(2),
		"next4fit":       NewNextKFit(4),
	}
}

// Vector returns a fresh instance of every DVBP (vector bin packing)
// policy, keyed by a stable short name. They are kept out of Standard
// so the scalar experiment sweeps keep their historical policy set, but
// they are selectable everywhere ByName is (dbpserved -algo, dbpload -algo,
// dbpverify). All accept scalar workloads too, degenerating to their
// 1-D classical counterparts.
func Vector() map[string]Algorithm {
	return map[string]Algorithm{
		"vectorfirstfit": NewVectorFirstFit(),
		"vectorbestfit":  NewVectorBestFit(),
		"dotfit":         NewDotProductFit(),
		"normfit":        NewNormBestFit(),
		"drworstfit":     NewDRWorstFit(),
	}
}

// Clairvoyant returns the departure-aware baselines; they must be run
// with Options.Clairvoyant and are not part of Standard (they are not
// online algorithms in the paper's model).
func Clairvoyant() map[string]Algorithm {
	return map[string]Algorithm{
		"alignfit":    NewAlignFit(),
		"noextendfit": NewNoExtendFit(),
	}
}

// Names returns the sorted short names of the standard and vector
// policies.
func Names() []string {
	m := Standard()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for k := range Vector() {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ByName returns a fresh instance of the named standard or vector
// policy (case-insensitive), or an error listing the valid names.
func ByName(name string) (Algorithm, error) {
	if a, ok := Standard()[strings.ToLower(name)]; ok {
		return a, nil
	}
	if a, ok := Vector()[strings.ToLower(name)]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("packing: unknown algorithm %q (valid: %s)", name, strings.Join(Names(), ", "))
}
