package bins

// levelTree is a treap over the open bins ordered by (gap, index), where
// gap is the bin's MinGap (its Gap on a scalar fleet): an ordered-set view
// of bin fill levels answering the level-directed Any Fit queries —
// tightest fit (min gap >= need), emptiest fit (max gap), second-emptiest
// fit, and the dominant-resource walk — in O(log B) expected per operation.
//
// Keys are exact: two bins compare by gap first and opening index second,
// with no epsilon fuzz, so every query has a unique, order-independent
// answer — the property the cross-engine equivalence suite relies on.
// Priorities are a deterministic hash of the bin index, making tree
// shape (and therefore run cost) reproducible across runs. A node belongs
// to one bin for as long as the bin is open: a level change detaches it
// and files it again under the new gap.
type levelTree struct {
	root *levelNode
}

type levelNode struct {
	gap  float64
	idx  int // bin.Index, beside gap so that comparisons stay inside the node
	bin  *Bin
	prio uint64
	l, r *levelNode
}

// splitmix64 is the standard 64-bit finalizer; good avalanche makes the
// treap priorities effectively random while staying deterministic.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyLess orders keys lexicographically by (gap, index).
func keyLess(g1 float64, i1 int, g2 float64, i2 int) bool {
	return g1 < g2 || (g1 == g2 && i1 < i2)
}

// insert adds a childless node under its key (gap, idx), which must not
// already be present.
func (t *levelTree) insert(x *levelNode) {
	t.root = levelInsert(t.root, x)
}

func levelInsert(n, x *levelNode) *levelNode {
	if n == nil {
		return x
	}
	if keyLess(x.gap, x.idx, n.gap, n.idx) {
		n.l = levelInsert(n.l, x)
		if n.l.prio > n.prio {
			n = rotateRight(n)
		}
	} else {
		n.r = levelInsert(n.r, x)
		if n.r.prio > n.prio {
			n = rotateLeft(n)
		}
	}
	return n
}

// delete removes the key (gap, idx), leaving its node childless and ready
// for insert; missing keys are a coherence bug.
func (t *levelTree) delete(gap float64, idx int) {
	t.root = levelDelete(t.root, gap, idx)
}

// levelDelete returns the subtree without the key.
func levelDelete(n *levelNode, gap float64, idx int) *levelNode {
	if n == nil {
		panic("bins: level tree missing a key it should hold")
	}
	switch {
	case keyLess(gap, idx, n.gap, n.idx):
		n.l = levelDelete(n.l, gap, idx)
	case keyLess(n.gap, n.idx, gap, idx):
		n.r = levelDelete(n.r, gap, idx)
	default:
		// Rotate the node down until it has at most one child.
		var root *levelNode
		switch {
		case n.l == nil:
			root, n.r = n.r, nil
			return root
		case n.r == nil:
			root, n.l = n.l, nil
			return root
		case n.l.prio > n.r.prio:
			n = rotateRight(n)
			n.r = levelDelete(n.r, gap, idx)
		default:
			n = rotateLeft(n)
			n.l = levelDelete(n.l, gap, idx)
		}
	}
	return n
}

func rotateRight(n *levelNode) *levelNode {
	l := n.l
	n.l = l.r
	l.r = n
	return l
}

func rotateLeft(n *levelNode) *levelNode {
	r := n.r
	n.r = r.l
	r.l = n
	return r
}

// ceil returns the smallest key >= (gap, idx), or nil.
func (t *levelTree) ceil(gap float64, idx int) *levelNode {
	var best *levelNode
	for n := t.root; n != nil; {
		if keyLess(n.gap, n.idx, gap, idx) {
			n = n.r
		} else {
			best = n
			n = n.l
		}
	}
	return best
}

// max returns the largest key, or nil.
func (t *levelTree) max() *levelNode {
	n := t.root
	if n == nil {
		return nil
	}
	for n.r != nil {
		n = n.r
	}
	return n
}

// floorBelowGap returns the largest key whose gap is strictly below the
// given gap, or nil — the head of the next-lower gap group.
func (t *levelTree) floorBelowGap(gap float64) *levelNode {
	var best *levelNode
	for n := t.root; n != nil; {
		if n.gap < gap {
			best = n
			n = n.r
		} else {
			n = n.l
		}
	}
	return best
}

// find returns the node holding the exact key, or nil (invariant checks).
func (t *levelTree) find(gap float64, idx int) *levelNode {
	for n := t.root; n != nil; {
		switch {
		case keyLess(gap, idx, n.gap, n.idx):
			n = n.l
		case keyLess(n.gap, n.idx, gap, idx):
			n = n.r
		default:
			return n
		}
	}
	return nil
}

// count returns the number of keys (invariant checks; O(B)).
func (t *levelTree) count() int {
	var walk func(*levelNode) int
	walk = func(n *levelNode) int {
		if n == nil {
			return 0
		}
		return 1 + walk(n.l) + walk(n.r)
	}
	return walk(t.root)
}
