package sched

import (
	"math/bits"

	"repro/internal/cond"
	"repro/internal/cpg"
)

// Index is the dense activity index of one graph: process p occupies slot p
// and the broadcast of condition c occupies slot Procs+c. Slot order is
// therefore Key.Less order (processes by identifier, then broadcasts by
// condition), so walking slots reproduces the tie order of sorted keys.
type Index struct {
	Procs int
	Conds int
}

// IndexOf returns the activity index of g.
func IndexOf(g *cpg.Graph) Index { return Index{Procs: g.NumProcs(), Conds: g.NumConds()} }

// Len returns the number of slots.
func (x Index) Len() int { return x.Procs + x.Conds }

// Of returns the slot of k, or -1 when k lies outside the index.
func (x Index) Of(k Key) int {
	if k.IsCond {
		if k.Cond < 0 || int(k.Cond) >= x.Conds {
			return -1
		}
		return x.Procs + int(k.Cond)
	}
	if k.Proc < 0 || int(k.Proc) >= x.Procs {
		return -1
	}
	return int(k.Proc)
}

// Key returns the key of slot i.
func (x Index) Key(i int) Key {
	if i >= x.Procs {
		return CondKey(cond.Cond(i - x.Procs))
	}
	return ProcKey(cpg.ProcID(i))
}

// Slots maps the activities of an Index to values of type T: a value slice
// indexed by slot plus a presence bitset, iterated in slot order. It holds
// the lock sets of the list scheduler, the rows of the schedule table and
// the activations of the simulator. The zero value is an empty set over an empty index; Reset
// sizes it. A nil *Slots reads as empty.
type Slots[T any] struct {
	ix   Index
	vals []T
	has  []uint64
	n    int
}

// Reset empties the set and lays it out on ix, retaining the allocated
// capacity so one set can be reused across runs.
func (s *Slots[T]) Reset(ix Index) {
	s.ix = ix
	n := ix.Len()
	w := (n + 63) / 64
	if cap(s.vals) < n {
		s.vals = make([]T, n)
	}
	s.vals = s.vals[:n]
	if cap(s.has) < w {
		s.has = make([]uint64, w)
	}
	s.has = s.has[:w]
	clear(s.has)
	s.n = 0
}

// Index returns the index the set is laid out on.
func (s *Slots[T]) Index() Index { return s.ix }

// Len returns the number of keys present.
func (s *Slots[T]) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Set records (or replaces) the value of k. It panics when k lies outside
// the index.
func (s *Slots[T]) Set(k Key, v T) {
	i := s.ix.Of(k)
	if i < 0 {
		panic("sched: " + k.String() + " outside the activity index")
	}
	if w, b := i/64, uint64(1)<<(i%64); s.has[w]&b == 0 {
		s.has[w] |= b
		s.n++
	}
	s.vals[i] = v
}

// Get returns the value of k and whether it is present.
func (s *Slots[T]) Get(k Key) (T, bool) {
	var zero T
	if s == nil {
		return zero, false
	}
	i := s.ix.Of(k)
	if i < 0 || s.has[i/64]&(1<<(i%64)) == 0 {
		return zero, false
	}
	return s.vals[i], true
}

// Each calls fn for every present key in slot order.
func (s *Slots[T]) Each(fn func(k Key, v T)) {
	if s == nil {
		return
	}
	for w, word := range s.has {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			fn(s.ix.Key(i), s.vals[i])
		}
	}
}
