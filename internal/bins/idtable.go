package bins

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"dbp/internal/item"
)

// idTable maps each resident job's ID to its bin and its position in the
// bin's resident slice, sized by the live count alone (DESIGN.md §8):
// open-addressed slots at a power-of-two length that doubles above 3/4
// load and halves below 1/8, linear probing, and backward-shift deletion,
// so no tombstones. The home slot is a multiply-shift hash with an odd
// multiplier drawn per table, as clients choose job IDs. Nothing reads the
// slots in order, so the layout reaches no answer, snapshot or journal
// byte.
type idTable struct {
	slots []idSlot // bin == nil marks an empty slot
	n     int      // occupied slots
	mult  uint64   // odd
	shift uint     // 64 - log2(len(slots))
}

type idSlot struct {
	id  item.ID
	bin *Bin
	pos int
}

// minIDSlots is the smallest table; a halving stops there.
const minIDSlots = 8

// newIDTable returns a table sized to hold n IDs without growing, hashing
// with a fresh random multiplier.
func newIDTable(n int) idTable {
	t := idTable{mult: rand.Uint64() | 1}
	t.resize(max(minIDSlots, 1<<bits.Len(uint(4*n/3))))
	return t
}

// home returns the slot a probe for id starts at.
func (t *idTable) home(id item.ID) int { return int((uint64(id) * t.mult) >> t.shift) }

// probe returns the slot holding id or, when id is absent, the empty slot
// that ends its run.
func (t *idTable) probe(id item.ID) int {
	mask := len(t.slots) - 1
	i := t.home(id)
	for t.slots[i].bin != nil && t.slots[i].id != id {
		i = (i + 1) & mask
	}
	return i
}

// get returns id's slot, whose pos the caller may update until the next
// insert or remove, or, when id is absent, an empty slot (bin nil).
func (t *idTable) get(id item.ID) *idSlot { return &t.slots[t.probe(id)] }

// insert records s. It returns false, leaving every entry as it was,
// when s.id is already present.
func (t *idTable) insert(s idSlot) bool {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	i := t.probe(s.id)
	if t.slots[i].bin != nil {
		return false
	}
	t.slots[i] = s
	t.n++
	return true
}

// remove deletes id and returns its slot as it was; ok is false when id
// is absent.
func (t *idTable) remove(id item.ID) (r idSlot, ok bool) {
	i := t.probe(id)
	if t.slots[i].bin == nil {
		return idSlot{}, false
	}
	r = t.slots[i]
	// Backward shift: move each later entry of the run whose probe passes
	// through the hole into it, until the run ends.
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].bin != nil; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].id))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = idSlot{} // a closed bin stays unreachable
	t.n--
	if 8*t.n < len(t.slots) && len(t.slots) > minIDSlots {
		t.resize(len(t.slots) / 2)
	}
	return r, true
}

// resize rehashes every entry into a table of size slots.
func (t *idTable) resize(size int) {
	old := t.slots
	t.slots = make([]idSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.bin != nil {
			t.slots[t.probe(s.id)] = s
		}
	}
}

// check verifies the table's own invariants: the count matches the
// occupied slots, and a probe for each entry finds it, crossing no empty
// slot from its home.
func (t *idTable) check() error {
	n := 0
	for i, s := range t.slots {
		if s.bin != nil {
			n++
			if t.probe(s.id) != i {
				return fmt.Errorf("job %d in slot %d is not found from its home slot %d", s.id, i, t.home(s.id))
			}
		}
	}
	if n != t.n {
		return fmt.Errorf("job table counts %d entries in %d occupied slots", t.n, n)
	}
	return nil
}
