// Package fanout runs independent calls on a bounded set of goroutines:
// the one parallel loop of the module, used by WAL recovery (a call per
// shard), Result.Verify (a call per chunk of servers) and the
// experiments' grid sweeps (a call per cell).
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the number of goroutines Each runs n calls on:
// min(n, GOMAXPROCS).
func Workers(n int) int { return min(n, runtime.GOMAXPROCS(0)) }

// Each calls fn(w, i) for every i < n and returns once every call has
// returned: nil, or the error of the lowest i that failed, as a loop over
// i in order would report. The calls run on Workers(n) goroutines, each
// taking the next i until none is left; w < Workers(n) numbers the
// goroutine that makes a call, so that fn may keep a scratch per worker.
// With one worker the calls run in order on the caller's goroutine.
func Each(n int, fn func(w, i int) error) error {
	workers := Workers(n)
	if workers <= 1 {
		var first error
		for i := range n {
			if err := fn(0, i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(w, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
