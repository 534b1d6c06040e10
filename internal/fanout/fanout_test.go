package fanout

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachCallsEveryIndexOnce checks that Each makes exactly one call per
// index, each from a worker numbered below Workers(n), at one and at
// several GOMAXPROCS, and returns the lowest failing index's error though
// every index fails or higher ones fail first.
func TestEachCallsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 7, 100} {
			calls := make([]atomic.Int32, n)
			err := Each(n, func(w, i int) error {
				if w < 0 || w >= Workers(n) {
					t.Errorf("procs %d, n %d: call %d from worker %d of %d", procs, n, i, w, Workers(n))
				}
				calls[i].Add(1)
				if i >= n/2 {
					return fmt.Errorf("call %d", i)
				}
				return nil
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("procs %d, n %d: index %d called %d times", procs, n, i, c)
				}
			}
			want := fmt.Sprintf("call %d", n/2)
			if n == 0 {
				if err != nil {
					t.Errorf("procs %d, n 0: %v", procs, err)
				}
			} else if err == nil || err.Error() != want {
				t.Errorf("procs %d, n %d: error %v, want %s", procs, n, err, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	if err := Each(3, func(_, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("only")
	if err := Each(5, func(_, i int) error {
		if i == 4 {
			return sentinel
		}
		return nil
	}); err != sentinel {
		t.Fatalf("got %v, want the one error", err)
	}
}
