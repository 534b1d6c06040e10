package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 1000
		hits := make([]int32, n)
		ForEach(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachZeroAndOne(t *testing.T) {
	ForEach(0, 4, func(int) { t.Fatal("must not be called") })
	called := 0
	ForEach(1, 4, func(i int) { called++ })
	if called != 1 {
		t.Fatalf("called %d times", called)
	}
}

func TestMapOrder(t *testing.T) {
	out := Map(100, 8, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(-1) < 1 || Workers(0) < 1 {
		t.Fatal("Workers must default to at least 1")
	}
	if Workers(5) != 5 {
		t.Fatal("explicit worker count must pass through")
	}
}
