package bins

// levelTree is a treap over the open bins ordered by (key, index), where
// key is a scalarization of the bin's gap vector: MinGap (its Gap on a
// scalar fleet) for the level-directed Any Fit queries — tightest fit
// (min gap >= need), emptiest fit (max gap), second-emptiest fit, and the
// dominant-resource walk — or TotalGap for the vector Best Fit walk. Each
// operation is O(log B) expected.
//
// Keys are exact: two bins compare by key first and opening index second,
// with no epsilon fuzz, so every query has a unique, order-independent
// answer — the property the cross-engine equivalence suite relies on.
// Priorities are a deterministic hash of the bin index, making tree
// shape (and therefore run cost) reproducible across runs. A node belongs
// to one bin for as long as the bin is open, and holds the exact key it
// was filed under: a level change detaches it and files it again under
// the new key. The index finds a bin's node by the bin's slot in nodes.
type levelTree struct {
	root  *levelNode
	key   func(*Bin) float64 // the scalarization: (*Bin).MinGap or (*Bin).TotalGap
	nodes []*levelNode       // by slot, the bin's node; nil where the bin has closed
	walk  []*levelNode       // firstFitting's reusable stack; empty between queries
}

type levelNode struct {
	key  float64
	idx  int // bin.Index, beside key so that comparisons stay inside the node
	bin  *Bin
	prio uint64
	l, r *levelNode
}

// newLevelTree files every bin in the index's slots (nil where the bin has
// closed) under the given scalarization, in O(B log B).
func newLevelTree(key func(*Bin) float64, slots []*Bin) *levelTree {
	t := &levelTree{key: key, nodes: make([]*levelNode, len(slots))}
	for i, b := range slots {
		if b != nil {
			t.nodes[i] = t.file(b)
		}
	}
	return t
}

// file inserts a new node for the bin under its current key.
func (t *levelTree) file(b *Bin) *levelNode {
	n := &levelNode{key: t.key(b), idx: b.Index, bin: b, prio: splitmix64(uint64(b.Index))}
	t.insert(n)
	return n
}

// add files a bin that has just taken the next slot.
func (t *levelTree) add(b *Bin) {
	t.nodes = append(t.nodes, t.file(b))
}

// refresh re-files the bin's node if its key moved. The key to delete is
// the one the node holds (the exact float written last time).
func (t *levelTree) refresh(b *Bin) {
	n := t.nodes[b.slot]
	if k := t.key(b); k != n.key {
		t.delete(n.key, n.idx)
		n.key = k
		t.insert(n)
	}
}

// drop removes the node of a bin that closed.
func (t *levelTree) drop(b *Bin) {
	n := t.nodes[b.slot]
	t.delete(n.key, n.idx)
	t.nodes[b.slot] = nil
}

// compact keeps the open slots' nodes, in slot order, as Index.compact
// renumbers the slots: a closed slot is exactly a nil node.
func (t *levelTree) compact(live int) {
	kept := make([]*levelNode, 0, live)
	for _, n := range t.nodes {
		if n != nil {
			kept = append(kept, n)
		}
	}
	t.nodes = kept
}

// splitmix64 is the standard 64-bit finalizer; good avalanche makes the
// treap priorities effectively random while staying deterministic.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyLess orders keys lexicographically by (key, index).
func keyLess(k1 float64, i1 int, k2 float64, i2 int) bool {
	return k1 < k2 || (k1 == k2 && i1 < i2)
}

// insert adds a childless node under its key (key, idx), which must not
// already be present.
func (t *levelTree) insert(x *levelNode) {
	t.root = levelInsert(t.root, x)
}

func levelInsert(n, x *levelNode) *levelNode {
	if n == nil {
		return x
	}
	if keyLess(x.key, x.idx, n.key, n.idx) {
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

// delete removes the key (key, idx), leaving its node childless and ready
// for insert; missing keys are a coherence bug.
func (t *levelTree) delete(key float64, idx int) {
	t.root = levelDelete(t.root, key, idx)
}

// levelDelete returns the subtree without the key.
func levelDelete(n *levelNode, key float64, idx int) *levelNode {
	if n == nil {
		panic("bins: level tree missing a key it should hold")
	}
	switch {
	case keyLess(key, idx, n.key, n.idx):
		n.l = levelDelete(n.l, key, idx)
	case keyLess(n.key, n.idx, key, idx):
		n.r = levelDelete(n.r, key, idx)
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
			n.r = levelDelete(n.r, key, idx)
		default:
			n = rotateLeft(n)
			n.l = levelDelete(n.l, key, idx)
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

// firstFitting walks the nodes whose key is >= lo upward in (key, index)
// order and returns the first whose bin fits the demand, or nil. The walk
// keeps the ancestors still ahead of it on a reusable stack, so each step
// to the successor is O(1) amortised; the stack is cleared before it
// returns, so it holds no node between queries.
func (t *levelTree) firstFitting(lo float64, sizes []float64) *Bin {
	stack := t.walk[:0]
	for n := t.root; n != nil; {
		if n.key < lo {
			n = n.r
		} else {
			stack = append(stack, n)
			n = n.l
		}
	}
	var found *Bin
	for len(stack) > 0 {
		top := len(stack) - 1
		n := stack[top]
		stack[top] = nil
		stack = stack[:top]
		if n.bin.FitsDemand(sizes) {
			found = n.bin
			break
		}
		for c := n.r; c != nil; c = c.l {
			stack = append(stack, c)
		}
	}
	clear(stack)
	t.walk = stack[:0]
	return found
}

// ceil returns the smallest key >= (key, idx), or nil.
func (t *levelTree) ceil(key float64, idx int) *levelNode {
	var best *levelNode
	for n := t.root; n != nil; {
		if keyLess(n.key, n.idx, key, idx) {
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

// floorBelow returns the largest key whose scalar is strictly below the
// given one, or nil — the head of the next-lower key group.
func (t *levelTree) floorBelow(key float64) *levelNode {
	var best *levelNode
	for n := t.root; n != nil; {
		if n.key < key {
			best = n
			n = n.r
		} else {
			n = n.l
		}
	}
	return best
}

// find returns the node holding the exact key, or nil (invariant checks).
func (t *levelTree) find(key float64, idx int) *levelNode {
	for n := t.root; n != nil; {
		switch {
		case keyLess(key, idx, n.key, n.idx):
			n = n.l
		case keyLess(n.key, n.idx, key, idx):
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
