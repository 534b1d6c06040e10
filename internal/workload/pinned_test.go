package workload

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"reflect"
	"testing"
)

var updateListing = flag.Bool("update", false, "rewrite testdata/list.golden from List")

// TestListGolden pins the -list-workloads text (List's output) byte for
// byte to testdata/list.golden. A change meant to move the listing
// rewrites it with -update.
func TestListGolden(t *testing.T) {
	const golden = "testdata/list.golden"
	var b bytes.Buffer
	List(&b)
	if *updateListing {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("List output differs from %s:\n got:\n%s\nwant:\n%s", golden, b.Bytes(), want)
	}
}

// TestAdversarialScenarioDigests pins the four adversarial constructions
// bit for bit at their default parameters, at a construction size and
// mu every one accepts. None has a vector form, so each pins its refusal
// at d = 2.
func TestAdversarialScenarioDigests(t *testing.T) {
	want := map[string][2]string{
		"anyfit-trap":   {"5b8f325b482ca67b", "scalar-only"},
		"bestfit-relay": {"d6f9a50971036cc8", "scalar-only"},
		"nextfit-adv":   {"4dfcbca9207e3575", "scalar-only"},
		"stress":        {"e4f1f195b3066a80", "scalar-only"},
	}
	got := map[string][2]string{}
	for name := range want {
		var pair [2]string
		for i, d := range []int{1, 2} {
			l, err := FromSpec(name, 30, 2, 8, 11, d)
			switch {
			case errors.Is(err, ErrScalarOnly):
				pair[i] = "scalar-only"
			case err != nil:
				t.Fatalf("%s d=%d: %v", name, d, err)
			default:
				pair[i] = digest(l)
			}
		}
		got[name] = pair
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("adversarial scenario digests moved:\n got %q\nwant %q", got, want)
	}
}
