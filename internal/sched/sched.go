// Package sched defines the data structures shared by the list scheduler,
// the schedule table and the merging algorithm: schedule keys (ordinary or
// communication processes, and condition broadcasts) with the dense activity
// index that addresses them, per-path schedules with condition-availability
// information, and resource timelines.
package sched

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
)

// Key identifies a schedulable activity: either a process of the graph
// (ordinary, communication, source or sink) or the broadcast of a condition
// value after its disjunction process terminated.
type Key struct {
	// IsCond is true for condition broadcasts.
	IsCond bool
	// Proc is the process identifier (valid when !IsCond).
	Proc cpg.ProcID
	// Cond is the broadcast condition (valid when IsCond).
	Cond cond.Cond
}

// ProcKey returns the key of a process.
func ProcKey(p cpg.ProcID) Key { return Key{Proc: p, Cond: cond.None} }

// CondKey returns the key of a condition broadcast.
func CondKey(c cond.Cond) Key { return Key{IsCond: true, Proc: cpg.NoProc, Cond: c} }

// String renders the key ("P12" or "bcast(c0)").
func (k Key) String() string {
	if k.IsCond {
		return fmt.Sprintf("bcast(c%d)", int(k.Cond))
	}
	return fmt.Sprintf("proc(%d)", int(k.Proc))
}

// Less orders keys: processes by identifier first, then condition broadcasts
// by condition identifier.
func (k Key) Less(o Key) bool {
	if k.IsCond != o.IsCond {
		return !k.IsCond
	}
	if k.IsCond {
		return k.Cond < o.Cond
	}
	return k.Proc < o.Proc
}

// Entry is one scheduled activity: the key, its start and end time, and the
// processing element it occupies.
type Entry struct {
	Key   Key
	Start int64
	End   int64
	PE    arch.PEID
}

// Duration returns the execution time of the entry.
func (e Entry) Duration() int64 { return e.End - e.Start }

// CondTiming records when a condition value becomes available during one
// path schedule: the moment the disjunction process terminates (on the
// processing element that executed it) and the broadcast interval on the bus.
type CondTiming struct {
	Cond cond.Cond
	// Value of the condition on this path.
	Value bool
	// DecidedAt is the termination time of the disjunction process.
	DecidedAt int64
	// DeciderPE is the processing element that computed the condition.
	DeciderPE arch.PEID
	// BroadcastStart/BroadcastEnd delimit the broadcast on the bus; the
	// value is known on every other processing element from BroadcastEnd.
	BroadcastStart int64
	BroadcastEnd   int64
	// Bus is the bus carrying the broadcast (NoPE when the architecture
	// has a single computation element and no broadcast is needed).
	Bus arch.PEID
}

// PathSchedule is the (optimal or adjusted) schedule of one alternative path:
// start and end times for every active process plus the condition broadcasts.
//
// Entries are kept sorted by (start time, index slot) as they are recorded,
// with their positions in a slice by slot of the graph's Index, so lookups
// are plain indexing and Entries never sorts. Condition timings live in a
// slice by condition identifier with a presence mask.
type PathSchedule struct {
	// Label is the path label Lk.
	Label cond.Cube
	// Delay is the activation time of the sink process (δk).
	Delay int64

	ix      Index
	entries []Entry // sorted by (Start, slot)
	pos     []int32 // by slot: position in entries plus one, 0 when absent
	// shared is set once Entries handed the slice out; the next change
	// copies it first, so returned slices never change.
	shared bool

	conds    []CondTiming // by condition identifier
	condMask uint64       // conditions with a record in conds

	// sortedConds caches the result of Conds; it is invalidated by SetCond
	// and shared with callers.
	sortedConds []CondTiming
}

// NewPathSchedule returns an empty schedule for the given path label over the
// activities of index ix.
func NewPathSchedule(label cond.Cube, ix Index) *PathSchedule {
	return NewPathScheduleSized(label, ix, 0)
}

// NewPathScheduleSized is NewPathSchedule with room for about n entries.
func NewPathScheduleSized(label cond.Cube, ix Index, n int) *PathSchedule {
	return &PathSchedule{
		Label:   label,
		ix:      ix,
		entries: make([]Entry, 0, n),
		pos:     make([]int32, ix.Len()),
		conds:   make([]CondTiming, ix.Conds),
	}
}

// Index returns the activity index the schedule is laid out on.
func (ps *PathSchedule) Index() Index { return ps.ix }

// Set records (or replaces) the entry for a key. It panics when the key lies
// outside the schedule's index.
func (ps *PathSchedule) Set(e Entry) {
	slot := ps.ix.Of(e.Key)
	if slot < 0 {
		panic("sched: " + e.Key.String() + " outside the activity index")
	}
	if ps.shared {
		ps.entries = slices.Clone(ps.entries)
		ps.shared = false
	}
	if p := ps.pos[slot]; p != 0 {
		ps.entries = slices.Delete(ps.entries, int(p-1), int(p))
		ps.renumber(int(p - 1))
	}
	// Entries mostly arrive in start order, so insert scanning from the end.
	j := len(ps.entries)
	for j > 0 {
		o := &ps.entries[j-1]
		if o.Start < e.Start || (o.Start == e.Start && ps.ix.Of(o.Key) < slot) {
			break
		}
		j--
	}
	ps.entries = slices.Insert(ps.entries, j, e)
	ps.renumber(j)
}

// renumber refreshes the positions of the entries from index i on.
func (ps *PathSchedule) renumber(i int) {
	for ; i < len(ps.entries); i++ {
		ps.pos[ps.ix.Of(ps.entries[i].Key)] = int32(i + 1)
	}
}

// SetCond records the availability of a condition value. It panics when the
// condition lies outside the schedule's index.
func (ps *PathSchedule) SetCond(t CondTiming) {
	ps.conds[t.Cond] = t
	ps.condMask |= 1 << uint(t.Cond)
	ps.sortedConds = nil
}

// Entry returns the entry for the key.
func (ps *PathSchedule) Entry(k Key) (Entry, bool) {
	slot := ps.ix.Of(k)
	if slot < 0 || ps.pos[slot] == 0 {
		return Entry{}, false
	}
	return ps.entries[ps.pos[slot]-1], true
}

// Cond returns the availability record of a condition.
func (ps *PathSchedule) Cond(c cond.Cond) (CondTiming, bool) {
	if !ps.hasCond(c) {
		return CondTiming{}, false
	}
	return ps.conds[c], true
}

func (ps *PathSchedule) hasCond(c cond.Cond) bool {
	return c >= 0 && c < cond.MaxConds && ps.condMask&(1<<uint(c)) != 0
}

// Conds returns the availability records sorted by decision time (ties by
// condition identifier). This is the order in which the decision tree of the
// merging algorithm branches along this schedule. The returned slice is
// cached and shared; callers must not modify it.
func (ps *PathSchedule) Conds() []CondTiming {
	if ps.sortedConds != nil || ps.condMask == 0 {
		return ps.sortedConds
	}
	out := make([]CondTiming, 0, bits.OnesCount64(ps.condMask))
	for m := ps.condMask; m != 0; m &= m - 1 {
		out = append(out, ps.conds[bits.TrailingZeros64(m)])
	}
	// Collected by identifier; the stable sort keeps that as the tie order.
	slices.SortStableFunc(out, func(a, b CondTiming) int { return cmp.Compare(a.DecidedAt, b.DecidedAt) })
	ps.sortedConds = out
	return out
}

// Entries returns all entries sorted by start time (ties by index order, i.e.
// by Key.Less). The returned slice is shared; callers must not modify it,
// and later changes to the schedule leave it as it is.
func (ps *PathSchedule) Entries() []Entry {
	if !ps.shared {
		ps.shared = true
	}
	return ps.entries
}

// Len returns the number of entries.
func (ps *PathSchedule) Len() int { return len(ps.entries) }

// KnownAt returns the conjunction of condition values known on processing
// element pe at time t according to this schedule: a condition is known on
// the processing element that computed it from the moment the disjunction
// process terminates, and on every other element (including buses) from the
// end of its broadcast.
func (ps *PathSchedule) KnownAt(pe arch.PEID, t int64) cond.Cube {
	// Each condition appears at most once, so MustWith cannot contradict.
	c := cond.True()
	for m := ps.condMask; m != 0; m &= m - 1 {
		ct := &ps.conds[bits.TrailingZeros64(m)]
		if t >= ct.knownOn(pe) {
			c = c.MustWith(ct.Cond, ct.Value)
		}
	}
	return c
}

// KnownTime returns the moment condition c becomes known on processing
// element pe, or false when the condition is not decided on this path.
func (ps *PathSchedule) KnownTime(c cond.Cond, pe arch.PEID) (int64, bool) {
	if !ps.hasCond(c) {
		return 0, false
	}
	return ps.conds[c].knownOn(pe), true
}

// knownOn returns the moment the condition value is known on pe: at the
// decision on the deciding element, and everywhere when no broadcast is
// needed (single computation element); at the end of the broadcast otherwise.
func (ct *CondTiming) knownOn(pe arch.PEID) int64 {
	if (ct.DeciderPE == pe && ct.DeciderPE != arch.NoPE) || ct.Bus == arch.NoPE {
		return ct.DecidedAt
	}
	return ct.BroadcastEnd
}

// Clone returns a deep copy of the schedule.
func (ps *PathSchedule) Clone() *PathSchedule {
	return &PathSchedule{
		Label:    ps.Label,
		Delay:    ps.Delay,
		ix:       ps.ix,
		entries:  slices.Clone(ps.entries),
		pos:      slices.Clone(ps.pos),
		conds:    slices.Clone(ps.conds),
		condMask: ps.condMask,
	}
}

// Gantt renders the schedule as a per-processing-element time chart, mainly
// for examples and debugging (the analogue of Fig. 4 of the paper).
func (ps *PathSchedule) Gantt(a *arch.Architecture, name func(Key) string) string {
	byPE := map[arch.PEID][]Entry{}
	for _, e := range ps.Entries() {
		if e.PE == arch.NoPE {
			continue
		}
		byPE[e.PE] = append(byPE[e.PE], e)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "path %s  (delay %d)\n", ps.Label, ps.Delay)
	for _, pe := range a.PEs() {
		entries := byPE[pe.ID]
		sort.Slice(entries, func(i, j int) bool { return entries[i].Start < entries[j].Start })
		fmt.Fprintf(&b, "  %-10s:", pe.Name)
		for _, e := range entries {
			label := e.Key.String()
			if name != nil {
				label = name(e.Key)
			}
			fmt.Fprintf(&b, " %s[%d,%d)", label, e.Start, e.End)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
