package load

import (
	"reflect"
	"slices"
	"testing"

	"dbp/internal/workload"
)

// TestRegistryCompleteWithoutImports pins the scenario registry as a
// package that imports only workload sees it: every scenario, the
// paper's gaming workload included, registers with the registry itself.
func TestRegistryCompleteWithoutImports(t *testing.T) {
	want := []string{
		"anyfit-trap", "bestfit-relay", "bimodal", "bursty", "diurnal",
		"equalduration", "gaming", "hotspot", "nextfit-adv", "pareto",
		"smallitem", "stress", "trace", "uniform", "zipfian",
	}
	var got []string
	for _, s := range workload.Scenarios() {
		got = append(got, s.Name())
	}
	slices.Sort(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registered scenarios:\n got %q\nwant %q", got, want)
	}
	if _, err := GenerateScript("gaming", 100, 1, 10, 1, 1); err != nil {
		t.Fatal(err)
	}
}
