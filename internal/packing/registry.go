package packing

import (
	"fmt"
	"sort"
	"strings"
)

// family groups the registered policies: the standard set the
// experiments sweep, the DVBP vector-scoring policies, and the
// departure-aware baselines.
type family uint8

const (
	familyStandard family = iota
	familyVector
	familyClairvoyant
)

// registry is the one table of named policies; Standard, Vector,
// Clairvoyant, Names and ByName all derive from it. Each entry builds a
// fresh instance, so callers can run policies concurrently. First Fit on
// vector demands is firstfit itself, not a separate entry (THEORY.md);
// likewise nextfit is Next-k Fit at k = 1 and noextendfit PredictiveFit
// at sigma = 0, one implementation each under their own names.
var registry = []struct {
	name   string
	family family
	build  func() Algorithm
}{
	{"firstfit", familyStandard, func() Algorithm { return NewFirstFit() }},
	{"bestfit", familyStandard, func() Algorithm { return NewBestFit() }},
	{"worstfit", familyStandard, func() Algorithm { return NewWorstFit() }},
	{"lastfit", familyStandard, func() Algorithm { return NewLastFit() }},
	{"nextfit", familyStandard, func() Algorithm { return NewNextFit() }},
	{"randomfit", familyStandard, func() Algorithm { return &randomFit{seed: 1} }},
	{"hybridff", familyStandard, func() Algorithm { return NewHybridFirstFit(2) }},
	{"hybridff3", familyStandard, func() Algorithm { return NewHybridFirstFit(3) }},
	{"hybridnextfit", familyStandard, func() Algorithm { return newHybridNextFit(2) }},
	{"almostworstfit", familyStandard, func() Algorithm { return &almostWorstFit{} }},
	{"next2fit", familyStandard, func() Algorithm { return NewNextKFit(2) }},
	{"next4fit", familyStandard, func() Algorithm { return NewNextKFit(4) }},

	{"vectorbestfit", familyVector, func() Algorithm { return &vectorBestFit{} }},
	{"dotfit", familyVector, func() Algorithm { return &dotProductFit{} }},
	{"normfit", familyVector, func() Algorithm { return &normBestFit{} }},
	{"drworstfit", familyVector, func() Algorithm { return &drWorstFit{} }},

	{"alignfit", familyClairvoyant, func() Algorithm { return &alignFit{} }},
	{"noextendfit", familyClairvoyant, func() Algorithm { return newNoExtendFit() }},
}

// instances returns a fresh instance of every policy of one family,
// keyed by its stable short name.
func instances(fam family) map[string]Algorithm {
	m := make(map[string]Algorithm)
	for _, e := range registry {
		if e.family == fam {
			m[e.name] = e.build()
		}
	}
	return m
}

// Standard returns a fresh instance of every standard policy studied in
// the experiments, keyed by a stable short name. The map is newly built on
// each call so callers can run the policies concurrently.
func Standard() map[string]Algorithm { return instances(familyStandard) }

// Vector returns a fresh instance of every DVBP (vector bin packing)
// policy, keyed by a stable short name. They are kept out of Standard
// so the scalar experiment sweeps keep their historical policy set, but
// they are selectable everywhere ByName is (dbpserved -algo, dbpload -algo,
// dbpverify). All accept scalar workloads too, degenerating to their
// 1-D classical counterparts.
func Vector() map[string]Algorithm { return instances(familyVector) }

// Clairvoyant returns the departure-aware baselines; they must be run
// with Options.Clairvoyant and are not part of Standard (they are not
// online algorithms in the paper's model).
func Clairvoyant() map[string]Algorithm { return instances(familyClairvoyant) }

// Names returns the sorted short names of the standard and vector
// policies.
func Names() []string {
	var out []string
	for _, e := range registry {
		if e.family != familyClairvoyant {
			out = append(out, e.name)
		}
	}
	sort.Strings(out)
	return out
}

// ByName returns a fresh instance of the named standard or vector
// policy (case-insensitive), or an error listing the valid names.
func ByName(name string) (Algorithm, error) {
	key := strings.ToLower(name)
	for _, e := range registry {
		if e.family != familyClairvoyant && e.name == key {
			return e.build(), nil
		}
	}
	return nil, fmt.Errorf("packing: unknown algorithm %q (valid: %s)", name, strings.Join(Names(), ", "))
}
