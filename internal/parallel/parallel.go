// Package parallel provides the small, deterministic fan-out primitives
// the experiment suite shares: dbpexp runs independent experiments, and
// E9 runs independent sweep cells. Results are always written to
// caller-owned, index-addressed storage, so parallel runs are
// bit-identical to sequential ones.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count request: n <= 0 means GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// (sequentially when workers == 1 or n <= 1). fn must be safe to call
// concurrently for distinct i and must confine its writes to
// index-distinct storage. ForEach returns when all calls finish.
func ForEach(n, workers int, fn func(i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map applies fn to every index and collects the results in order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) { out[i] = fn(i) })
	return out
}
