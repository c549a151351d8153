// Package vclock computes vector clocks for recorded traces in a
// post-processing step — the approach Ravel [19] takes, and the "improved
// clock algorithm" the paper points to for programs whose Lamport stamps
// are insufficient (§II: wildcard receives can make message matching, and
// therefore scalar logical stamps, timing-dependent).
//
// A vector clock V assigns each event a vector with one component per
// location; a happened-before b iff V(a) < V(b) component-wise.  Unlike
// the scalar Lamport clock, the vector clock characterises causality
// exactly, so it can verify that a trace's recorded scalar timestamps
// satisfy the clock condition (if a → b then C(a) < C(b)) — a structural
// invariant of every correctly synchronised logical measurement.
package vclock

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// EventRef identifies one event in a trace.
type EventRef struct {
	Loc   int // index into Trace.Locs
	Index int // index into the location's event slice
}

// Clocks holds the vector timestamps of a trace's events: all of them
// (Compute, ComputeFromEdges) or a retained subset (ComputeSync).
type Clocks struct {
	tr *trace.Trace
	// keep[loc] lists the retained event indices of a location in
	// ascending order; nil means every event is retained.
	keep [][]int
	// vecs[loc][k] is the vector timestamp of the location's k-th
	// retained event (its k-th event when keep is nil).
	vecs [][][]uint32
}

// Vector returns the vector timestamp of an event, or nil when the
// event's vector was not retained.
func (c *Clocks) Vector(e EventRef) []uint32 {
	if c.keep == nil {
		return c.vecs[e.Loc][e.Index]
	}
	keep := c.keep[e.Loc]
	if k := sort.SearchInts(keep, e.Index); k < len(keep) && keep[k] == e.Index {
		return c.vecs[e.Loc][k]
	}
	return nil
}

// HappensBefore reports whether event a causally precedes event b.  Only
// b's vector is read and it must be retained.  Every event ticks its own
// location's component, so V(a)[a.Loc] = a.Index+1 and, for events on
// different locations, V(a) < V(b) component-wise exactly when b's
// vector has caught up with a on a's location.
func (c *Clocks) HappensBefore(a, b EventRef) bool {
	if a.Loc == b.Loc {
		return a.Index < b.Index
	}
	return uint32(a.Index) < c.Vector(b)[a.Loc]
}

// Concurrent reports whether two events are causally unordered.  Both
// events' vectors must be retained.
func (c *Clocks) Concurrent(a, b EventRef) bool {
	return !c.HappensBefore(a, b) && !c.HappensBefore(b, a)
}

// Edge is one cross-location synchronisation: the receive-side event at
// To happens after the send-side event at From.
type Edge struct {
	From EventRef
	To   EventRef
}

// Part is one participant of a hub: the event carrying its
// contribution and the event that releases it.
type Part struct{ Source, Target EventRef }

// Hub is one collective or barrier instance kept whole: every part's
// Target happens after every other-location part's Source — the
// all-to-all release edges of the instance, without their quadratic
// expansion.
type Hub []Part

// Edges reconstructs the cross-location synchronisation edges of a trace
// (messages, collectives, forks, joins, barriers).  Exposed for analyses
// that need the happens-before structure directly, such as the critical
// path.
func Edges(tr *trace.Trace) ([]Edge, error) { return matchEdges(tr) }

// Compute replays the trace's messages, collectives, forks, joins and
// barriers and assigns every event a vector timestamp.
func Compute(tr *trace.Trace) (*Clocks, error) {
	edges, err := matchEdges(tr)
	if err != nil {
		return nil, err
	}
	return ComputeFromEdges(tr, edges)
}

// ComputeFromEdges assigns every event a vector timestamp given an
// explicit synchronisation-edge set.
func ComputeFromEdges(tr *trace.Trace, edges []Edge) (*Clocks, error) {
	return ComputeSync(tr, edges, nil, nil)
}

// channel is one unit of incoming synchronisation during a replay: a
// point edge (one source, one target) or a hub.  Its vector is the join
// of its completed sources' vectors.
type channel struct {
	vec     []uint32
	pending int // sources not yet completed
	left    int // targets not yet replayed; vec is recycled at zero
}

// endpoint attaches a channel to one event of a location.
type endpoint struct{ index, ch int }

// ComputeSync assigns vector timestamps given point edges and hubs — the
// hook for analyses (internal/tracecheck) that reconstruct the
// synchronisation structure tolerantly from partially broken traces
// instead of failing on the first unmatched receive the way matchEdges
// does.  keep[loc] lists, ascending, the events whose vectors are
// retained; a nil keep retains every event.
//
// A hub target joins the hub vector, the join of all its sources.  That
// equals joining only the other-location sources because a target's
// own-location source precedes it in program order.  A hub where that
// fails — a location listed twice, or a source at or after a target on
// the same location — is expanded to its explicit edges, so readiness
// and the cycle error match the pairwise form exactly.
func ComputeSync(tr *trace.Trace, edges []Edge, hubs []Hub, keep [][]int) (*Clocks, error) {
	n := len(tr.Locs)
	var chans []channel
	srcs := make([][]endpoint, n)
	tgts := make([][]endpoint, n)
	addEdge := func(from, to EventRef) {
		id := len(chans)
		chans = append(chans, channel{pending: 1, left: 1})
		srcs[from.Loc] = append(srcs[from.Loc], endpoint{from.Index, id})
		tgts[to.Loc] = append(tgts[to.Loc], endpoint{to.Index, id})
	}
	for _, e := range edges {
		addEdge(e.From, e.To)
	}
	mark := make([]int, n) // hub id + 1 of the last hub to visit a location
	for hi, h := range hubs {
		if hubExact(h, mark, hi+1) {
			id := len(chans)
			chans = append(chans, channel{pending: len(h), left: len(h)})
			for _, p := range h {
				srcs[p.Source.Loc] = append(srcs[p.Source.Loc], endpoint{p.Source.Index, id})
				tgts[p.Target.Loc] = append(tgts[p.Target.Loc], endpoint{p.Target.Index, id})
			}
			continue
		}
		for _, a := range h {
			for _, b := range h {
				if a.Source.Loc != b.Target.Loc {
					addEdge(a.Source, b.Target)
				}
			}
		}
	}
	byIndex := func(eps []endpoint) {
		sort.SliceStable(eps, func(i, j int) bool { return eps[i].index < eps[j].index })
	}
	for li := 0; li < n; li++ {
		byIndex(srcs[li])
		byIndex(tgts[li])
	}

	c := &Clocks{tr: tr, keep: keep, vecs: make([][][]uint32, n)}
	for li := range tr.Locs {
		kept := len(tr.Locs[li].Events)
		if keep != nil {
			kept = len(keep[li])
		}
		c.vecs[li] = make([][]uint32, kept)
	}
	var free [][]uint32        // recycled channel vectors
	cur := make([][]uint32, n) // rolling vector of each location's last replayed event
	for li := range cur {
		cur[li] = make([]uint32, n)
	}
	// Process events in a topological order: repeatedly advance each
	// location past events whose cross-location dependencies are ready.
	done := make([]int, n)  // events completed per location
	srcAt := make([]int, n) // next unconsumed srcs[loc] entry
	tgtAt := make([]int, n) // next unconsumed tgts[loc] entry
	keepAt := make([]int, n)
	remaining := 0
	for _, l := range tr.Locs {
		remaining += len(l.Events)
	}
	for remaining > 0 {
		progressed := false
		for li := range tr.Locs {
			vec := cur[li]
			for done[li] < len(tr.Locs[li].Events) {
				ei := done[li]
				in := tgts[li][tgtAt[li]:]
				nin := 0
				for nin < len(in) && in[nin].index == ei {
					nin++
				}
				ready := true
				for _, t := range in[:nin] {
					if chans[t.ch].pending > 0 {
						ready = false
						break
					}
				}
				if !ready {
					break
				}
				vec[li]++
				for _, t := range in[:nin] {
					ch := &chans[t.ch]
					for i, v := range ch.vec {
						if v > vec[i] {
							vec[i] = v
						}
					}
					if ch.left--; ch.left == 0 && ch.vec != nil {
						free = append(free, ch.vec)
						ch.vec = nil
					}
				}
				tgtAt[li] += nin
				for out := srcs[li]; srcAt[li] < len(out) && out[srcAt[li]].index == ei; srcAt[li]++ {
					ch := &chans[out[srcAt[li]].ch]
					if ch.vec == nil {
						if k := len(free); k > 0 {
							ch.vec = free[k-1]
							free = free[:k-1]
							clear(ch.vec)
						} else {
							ch.vec = make([]uint32, n)
						}
					}
					for i, v := range vec {
						if v > ch.vec[i] {
							ch.vec[i] = v
						}
					}
					ch.pending--
				}
				if keep == nil {
					c.vecs[li][ei] = append([]uint32(nil), vec...)
				} else if k := keepAt[li]; k < len(keep[li]) && keep[li][k] == ei {
					c.vecs[li][k] = append([]uint32(nil), vec...)
					keepAt[li]++
				}
				done[li]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("vclock: synchronisation cycle or unmatched dependency (%d events stuck)", remaining)
		}
	}
	return c, nil
}

// hubExact reports whether a hub can be replayed as one channel: every
// part's source precedes its target on one location, and no location is
// listed twice.  mark is scratch indexed by location; stamp is unique to
// this call.
func hubExact(h Hub, mark []int, stamp int) bool {
	for _, p := range h {
		s, t := p.Source, p.Target
		if s.Loc != t.Loc || s.Index >= t.Index || mark[s.Loc] == stamp {
			return false
		}
		mark[s.Loc] = stamp
	}
	return true
}

// matchEdges reconstructs the cross-location synchronisation edges of a
// trace: point-to-point messages (FIFO per channel), collective instances
// (all-to-all release edges), OpenMP forks, joins and barriers.
func matchEdges(tr *trace.Trace) ([]Edge, error) {
	var edges []Edge
	type chanKey struct{ src, dst, tag int32 }
	sends := make(map[chanKey][]EventRef)
	type collEv struct {
		ref  EventRef
		exit EventRef
	}
	colls := make(map[[2]int32][]collEv)
	bars := make(map[[3]int32][]collEv) // rank, seq -> threads
	forks := make(map[[2]int32]EventRef)
	joins := make(map[[2]int32][]EventRef)
	masters := make(map[int]int) // rank -> master loc

	for li, l := range tr.Locs {
		if l.Thread == 0 {
			masters[l.Rank] = li
		}
	}
	// First pass: collect sends and instance participants.
	for li, l := range tr.Locs {
		var stack []int // enter indices
		for ei, e := range l.Events {
			switch e.Kind {
			case trace.EvEnter:
				stack = append(stack, ei)
			case trace.EvExit:
				if len(stack) == 0 {
					return nil, fmt.Errorf("vclock: loc %d: unbalanced exit", li)
				}
				stack = stack[:len(stack)-1]
			case trace.EvSend:
				k := chanKey{int32(l.Rank), e.A, e.B}
				sends[k] = append(sends[k], EventRef{li, ei})
			case trace.EvCollEnd:
				// The causal contribution of a collective is made when
				// the rank enters the call (that is the stamp carried by
				// its piggyback); the CollEnd record itself is stamped
				// after any spin-wait effort.  Use the enclosing Enter as
				// the edge source.
				enter := ei
				if len(stack) > 0 {
					enter = stack[len(stack)-1]
				}
				exit := exitAfter(l.Events, ei)
				colls[[2]int32{e.A, e.B}] = append(colls[[2]int32{e.A, e.B}],
					collEv{EventRef{li, enter}, EventRef{li, exit}})
			case trace.EvBarrier:
				exit := exitAfter(l.Events, ei)
				key := [3]int32{int32(l.Rank), e.B, 0}
				bars[key] = append(bars[key], collEv{EventRef{li, ei}, EventRef{li, exit}})
			case trace.EvFork:
				forks[[2]int32{int32(l.Rank), e.B}] = EventRef{li, ei}
			case trace.EvJoin:
				joins[[2]int32{int32(l.Rank), e.B}] = append(joins[[2]int32{int32(l.Rank), e.B}], EventRef{li, ei})
			}
		}
	}
	// Receives match sends FIFO per channel.
	for li, l := range tr.Locs {
		for ei, e := range l.Events {
			if e.Kind != trace.EvRecv {
				continue
			}
			k := chanKey{e.A, int32(l.Rank), e.B}
			q := sends[k]
			if len(q) == 0 {
				return nil, fmt.Errorf("vclock: loc %d event %d: receive without matching send", li, ei)
			}
			edges = append(edges, Edge{From: q[0], To: EventRef{li, ei}})
			sends[k] = q[1:]
		}
	}
	// Collectives: every participant's exit happens after every
	// participant's CollEnd contribution.
	for _, parts := range colls {
		for _, a := range parts {
			for _, b := range parts {
				if a.ref.Loc != b.exit.Loc {
					edges = append(edges, Edge{From: a.ref, To: b.exit})
				}
			}
		}
	}
	// OpenMP barriers: same all-to-all shape within the team.
	for _, parts := range bars {
		for _, a := range parts {
			for _, b := range parts {
				if a.ref.Loc != b.exit.Loc {
					edges = append(edges, Edge{From: a.ref, To: b.exit})
				}
			}
		}
	}
	// Forks: the team's first in-region event on each worker follows the
	// master's fork.  We approximate "first in-region event" as the
	// worker's next event after the previous join (workers only have
	// events inside regions, so their next unclaimed event is correct).
	workerCursor := make(map[int]int)
	// The cursor reconstruction consumes worker regions in fork order, so
	// forks MUST be processed sorted by (rank, seq) — map iteration order
	// would match workers' regions to the wrong instances, and differently
	// on every run.
	forkKeys := make([][2]int32, 0, len(forks))
	for key := range forks {
		forkKeys = append(forkKeys, key)
	}
	sort.Slice(forkKeys, func(i, j int) bool {
		if forkKeys[i][0] != forkKeys[j][0] {
			return forkKeys[i][0] < forkKeys[j][0]
		}
		return forkKeys[i][1] < forkKeys[j][1]
	})
	for _, key := range forkKeys {
		f := forks[key]
		rank := int(key[0])
		for li, l := range tr.Locs {
			if l.Rank != rank || l.Thread == 0 {
				continue
			}
			cur := workerCursor[li]
			if cur < len(l.Events) {
				edges = append(edges, Edge{From: f, To: EventRef{li, cur}})
				// Advance the cursor past this region: find the exit
				// that balances the first enter.
				workerCursor[li] = regionEnd(l.Events, cur) + 1
			}
		}
		// Joins: the master's join event follows every worker's last
		// in-region event of the instance.
		for _, j := range joins[key] {
			for li, l := range tr.Locs {
				if l.Rank != rank || l.Thread == 0 {
					continue
				}
				if end := workerCursor[li] - 1; end >= 0 && end < len(l.Events) {
					edges = append(edges, Edge{From: EventRef{li, end}, To: j})
				}
			}
		}
	}
	return edges, nil
}

// exitAfter finds the index of the Exit event closing the region that
// contains index i.
func exitAfter(events []trace.Event, i int) int {
	depth := 0
	for j := i + 1; j < len(events); j++ {
		switch events[j].Kind {
		case trace.EvEnter:
			depth++
		case trace.EvExit:
			if depth == 0 {
				return j
			}
			depth--
		}
	}
	return len(events) - 1
}

// regionEnd returns the index of the Exit balancing the Enter at start
// (start must be an Enter).
func regionEnd(events []trace.Event, start int) int {
	depth := 0
	for j := start; j < len(events); j++ {
		switch events[j].Kind {
		case trace.EvEnter:
			depth++
		case trace.EvExit:
			depth--
			if depth == 0 {
				return j
			}
		}
	}
	return len(events) - 1
}

// Violation is one clock-condition breach: a causally ordered event pair
// whose recorded scalar stamps are not strictly increasing.
type Violation struct {
	From, To EventRef
	FromTS   uint64
	ToTS     uint64
}

// Validate checks the clock condition of the trace's recorded scalar
// timestamps against the exact causality computed by the vector clock:
// for every direct synchronisation edge a → b, C(a) < C(b) must hold.
// It returns all violations, worst first.  Logical traces must come back
// empty; physical (tsc) traces with unsynchronised node clocks may not —
// which is one of the paper's arguments for logical timers (§II).
func Validate(tr *trace.Trace) ([]Violation, error) {
	edges, err := matchEdges(tr)
	if err != nil {
		return nil, err
	}
	var out []Violation
	for _, e := range edges {
		fromTS := tr.Locs[e.From.Loc].Events[e.From.Index].Time
		toTS := tr.Locs[e.To.Loc].Events[e.To.Index].Time
		if fromTS >= toTS {
			out = append(out, Violation{From: e.From, To: e.To, FromTS: fromTS, ToTS: toTS})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di := int64(out[i].FromTS) - int64(out[i].ToTS)
		dj := int64(out[j].FromTS) - int64(out[j].ToTS)
		return di > dj
	})
	return out, nil
}
