package dbp

import (
	"os/exec"
	"testing"
)

// TestBenchRig puts the benchmark in the tier-1 gate. bench/ is a module of
// its own, so `go test ./...` here never descends into it; this runs its unit
// tests and its 1/100-scale smoke of all four workloads and the ladder, so a
// change that breaks the benchmark's binding surface fails the suite instead
// of the next benchmark run.
func TestBenchRig(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: skipping the nested bench module's tests")
	}
	out, err := exec.Command("go", "test", "-C", "bench", "-count=1", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go test -C bench -count=1 ./...: %v\n%s", err, out)
	}
}
