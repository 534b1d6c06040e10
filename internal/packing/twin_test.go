package packing_test

import (
	"testing"

	"dbp/internal/packing"
)

// TestScalarVectorTwinsEquivalent holds a scalar job and its one-element
// demand vector to one placement: a 1-D fleet has one admission test,
// Bin.FitsDemand, whichever form the demand arrives in. The instance sits
// on the tolerance boundary: at unit capacity a server at level
// 0.865335013001561 admits a job of size 0.13466498799843918 under
// FitsDemand (level + size <= capacity + Eps), though its gap falls short
// of size - Eps by a rounding. Every registered policy on both engines
// must place the job and its twin alike (an Any Fit policy on server 0;
// the hybrids keep the two size classes apart).
func TestScalarVectorTwinsEquivalent(t *testing.T) {
	const level, size = 0.865335013001561, 0.13466498799843918
	for _, name := range packing.Names() {
		for _, kind := range []packing.EngineKind{packing.EngineIndexed, packing.EngineLinear} {
			place := func(sizes []float64) int {
				algo, err := packing.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				s, err := packing.NewStreamEngine(algo, 1, 1, 0, kind)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.Arrive(1, level, nil, 0); err != nil {
					t.Fatal(err)
				}
				server, _, err := s.Arrive(2, size, sizes, 1)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, kind, err)
				}
				return server
			}
			scalar, twin := place(nil), place([]float64{size})
			if scalar != twin {
				t.Errorf("%s/%s: the scalar job went to server %d, its one-element twin to %d", name, kind, scalar, twin)
			}
		}
	}
}
