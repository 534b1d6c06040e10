package opt

import "testing"

// FuzzBoundSandwich feeds arbitrary byte strings as size vectors and
// checks the solver invariants L1 <= L2 <= Exact <= FFD on whatever
// decodes to a valid instance.
func FuzzBoundSandwich(f *testing.F) {
	f.Add([]byte{128, 64, 32, 200, 10})
	f.Add([]byte{255, 255, 255})
	f.Add([]byte{1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 18 {
			raw = raw[:18] // keep exact solving fast
		}
		sizes := make([]float64, 0, len(raw))
		for _, b := range raw {
			s := (float64(b) + 1) / 256 // (0, 1]
			sizes = append(sizes, s)
		}
		l1, l2 := lowerL1(sizes, 1), lowerL2(sizes, 1)
		ex, ok := exactBinsLimit(sizes, 1, nodeLimit)
		if !ok {
			t.Skip("node budget hit")
		}
		ffd := firstFitDecreasing(sizes, 1)
		if !(l1 <= l2 && l2 <= ex && ex <= ffd) {
			t.Fatalf("sandwich violated: L1=%d L2=%d OPT=%d FFD=%d sizes=%v", l1, l2, ex, ffd, sizes)
		}
		if len(sizes) > 0 && (ex < 1 || ex > len(sizes)) {
			t.Fatalf("exact out of range: %d for %d items", ex, len(sizes))
		}
	})
}
