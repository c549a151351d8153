package vclock

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/simmpi"
	"repro/internal/simomp"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/work"
)

// handTrace builds a two-location trace with one message.
func handTrace() *trace.Trace {
	tr := trace.New("lt_1")
	main := tr.Region("main", trace.RoleUser)
	send := tr.Region("MPI_Send", trace.RoleMPIP2P)
	recv := tr.Region("MPI_Recv", trace.RoleMPIP2P)
	l0 := tr.AddLocation(0, 0)
	l1 := tr.AddLocation(1, 0)
	tr.Append(l0, trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
	tr.Append(l0, trace.Event{Kind: trace.EvEnter, Time: 2, Region: send})
	tr.Append(l0, trace.Event{Kind: trace.EvSend, Time: 3, A: 1, B: 0, C: 8})
	tr.Append(l0, trace.Event{Kind: trace.EvExit, Time: 4, Region: send})
	tr.Append(l0, trace.Event{Kind: trace.EvExit, Time: 5, Region: main})
	tr.Append(l1, trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
	tr.Append(l1, trace.Event{Kind: trace.EvEnter, Time: 2, Region: recv})
	tr.Append(l1, trace.Event{Kind: trace.EvRecv, Time: 4, A: 0, B: 0, C: 8})
	tr.Append(l1, trace.Event{Kind: trace.EvExit, Time: 5, Region: recv})
	tr.Append(l1, trace.Event{Kind: trace.EvExit, Time: 6, Region: main})
	return tr
}

func TestHappensBeforeAcrossMessage(t *testing.T) {
	c, err := Compute(handTrace())
	if err != nil {
		t.Fatal(err)
	}
	sendEv := EventRef{0, 2}
	recvEv := EventRef{1, 2}
	if !c.HappensBefore(sendEv, recvEv) {
		t.Fatal("send must happen before matching recv")
	}
	if c.HappensBefore(recvEv, sendEv) {
		t.Fatal("recv must not precede send")
	}
	// Events before the message on different locations are concurrent.
	a := EventRef{0, 0}
	b := EventRef{1, 0}
	if !c.Concurrent(a, b) {
		t.Fatal("pre-message events should be concurrent")
	}
	// Program order holds.
	if !c.HappensBefore(EventRef{0, 0}, EventRef{0, 4}) {
		t.Fatal("program order lost")
	}
}

func TestVectorComponentsMonotone(t *testing.T) {
	c, err := Compute(handTrace())
	if err != nil {
		t.Fatal(err)
	}
	for li := range c.vecs {
		for ei := 1; ei < len(c.vecs[li]); ei++ {
			prev, cur := c.vecs[li][ei-1], c.vecs[li][ei]
			for i := range prev {
				if cur[i] < prev[i] {
					t.Fatalf("loc %d event %d: vector went backwards", li, ei)
				}
			}
			if cur[li] != prev[li]+1 {
				t.Fatalf("loc %d: own component must advance by one", li)
			}
		}
	}
}

func TestValidateCleanTrace(t *testing.T) {
	v, err := Validate(handTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("clean trace reported %d violations", len(v))
	}
}

func TestValidateCatchesClockConditionBreach(t *testing.T) {
	tr := handTrace()
	// Corrupt the recv stamp to precede the send stamp.
	tr.Locs[1].Events[2].Time = 2
	tr.Locs[1].Events[3].Time = 2 // keep per-location order sane
	v, err := Validate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) == 0 {
		t.Fatal("violation not detected")
	}
	if v[0].FromTS != 3 || v[0].ToTS != 2 {
		t.Fatalf("unexpected violation: %+v", v[0])
	}
}

func TestUnmatchedReceiveRejected(t *testing.T) {
	tr := trace.New("lt_1")
	main := tr.Region("main", trace.RoleUser)
	l0 := tr.AddLocation(0, 0)
	tr.Append(l0, trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
	tr.Append(l0, trace.Event{Kind: trace.EvRecv, Time: 2, A: 5, B: 0, C: 8})
	tr.Append(l0, trace.Event{Kind: trace.EvExit, Time: 3, Region: main})
	if _, err := Compute(tr); err == nil {
		t.Fatal("expected error for unmatched receive")
	}
}

// measuredTrace runs a hybrid job through the real pipeline.
func measuredTrace(t *testing.T, mode core.Mode, np noise.Params) *trace.Trace {
	t.Helper()
	k := vtime.NewKernel()
	m := machine.New(k, machine.Jureca(1))
	place, err := machine.PlaceBlock(m, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var nm *noise.Model
	if np != (noise.Params{}) {
		nm = noise.NewModel(5, np)
	}
	w := simmpi.NewWorld(k, m, place, simmpi.DefaultConfig(), simomp.DefaultCosts(), nm)
	meas := measure.New(measure.DefaultConfig(mode))
	w.Launch(func(p *simmpi.Proc) {
		r := measure.NewRank(meas, p)
		r.Begin()
		other := p.Rank ^ 1
		reqs := []*simmpi.Request{r.Irecv(other, 0)}
		r.Isend(other, 0, []float64{1}, 8)
		r.Waitall(reqs)
		r.ParallelFor("loop", 64, func(lo, hi int, th *measure.Thread) {
			th.Work(work.PerIter(work.Cost{Instr: 1e5, Flops: 1e5, Bytes: 1e4, Calls: 2}, float64(hi-lo)))
		})
		r.Allreduce([]float64{1}, simmpi.OpSum)
		r.End()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return meas.Trace
}

func TestLogicalTraceSatisfiesClockCondition(t *testing.T) {
	for _, mode := range core.LogicalModes() {
		tr := measuredTrace(t, mode, noise.Cluster())
		v, err := Validate(tr)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(v) != 0 {
			t.Fatalf("%s: %d clock-condition violations in a logical trace (first: %+v)",
				mode, len(v), v[0])
		}
	}
}

func TestComputeWorksOnMeasuredTrace(t *testing.T) {
	tr := measuredTrace(t, core.ModeLt1, noise.Params{})
	c, err := Compute(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check: every location's last event vector dominates its first.
	for li := range tr.Locs {
		n := len(tr.Locs[li].Events)
		if n < 2 {
			continue
		}
		if !c.HappensBefore(EventRef{li, 0}, EventRef{li, n - 1}) {
			t.Fatalf("loc %d: first event does not precede last", li)
		}
	}
}

func TestTscWithSkewedClocksViolatesCondition(t *testing.T) {
	// Large clock offsets between ranks make physical stamps non-causal:
	// a message can appear to arrive before it was sent.  This is the
	// paper's first argument for logical clocks (§II).
	np := noise.Params{ClockOffsetMax: 5e-3}
	tr := measuredTrace(t, core.ModeTSC, np)
	v, err := Validate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) == 0 {
		t.Fatal("expected clock-condition violations with 5 ms clock offsets")
	}
}

// referenceVectors is the pairwise replay ComputeFromEdges used before
// hubs and rolling vectors: a fresh vector per event, joined with the
// vector of every incoming edge's source.  It is the definition the
// optimised replay must reproduce.
func referenceVectors(tr *trace.Trace, edges []Edge) ([][][]uint32, error) {
	incoming := make(map[EventRef][]EventRef)
	for _, e := range edges {
		incoming[e.To] = append(incoming[e.To], e.From)
	}
	n := len(tr.Locs)
	vecs := make([][][]uint32, n)
	for li := range tr.Locs {
		vecs[li] = make([][]uint32, len(tr.Locs[li].Events))
	}
	done := make([]int, n)
	remaining := 0
	for _, l := range tr.Locs {
		remaining += len(l.Events)
	}
	for remaining > 0 {
		progressed := false
		for li := range tr.Locs {
		events:
			for done[li] < len(tr.Locs[li].Events) {
				ref := EventRef{li, done[li]}
				for _, dep := range incoming[ref] {
					if done[dep.Loc] <= dep.Index {
						break events
					}
				}
				vec := make([]uint32, n)
				if done[li] > 0 {
					copy(vec, vecs[li][done[li]-1])
				}
				vec[li]++
				for _, dep := range incoming[ref] {
					for i, v := range vecs[dep.Loc][dep.Index] {
						vec[i] = max(vec[i], v)
					}
				}
				vecs[li][done[li]] = vec
				done[li]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("vclock: synchronisation cycle or unmatched dependency (%d events stuck)", remaining)
		}
	}
	return vecs, nil
}

// expand returns a hub's explicit pairwise edges.
func expand(hubs []Hub) []Edge {
	var out []Edge
	for _, h := range hubs {
		for _, a := range h {
			for _, b := range h {
				if a.Source.Loc != b.Target.Loc {
					out = append(out, Edge{From: a.Source, To: b.Target})
				}
			}
		}
	}
	return out
}

func sameVectors(t *testing.T, c *Clocks, want [][][]uint32) {
	t.Helper()
	for li := range want {
		for ei, w := range want[li] {
			if got := c.Vector(EventRef{li, ei}); !slices.Equal(got, w) {
				t.Fatalf("loc %d event %d: vector %v, want %v", li, ei, got, w)
			}
		}
	}
}

// hubTrace builds nloc locations that each run events enter/exit pairs;
// hubs and edges over them are supplied by the test.
func hubTrace(nloc, events int) *trace.Trace {
	tr := trace.New("lt_1")
	reg := tr.Region("MPI_Allreduce", trace.RoleMPIColl)
	for li := 0; li < nloc; li++ {
		l := tr.AddLocation(li, 0)
		for ei := 0; ei < events; ei++ {
			k := trace.EvEnter
			if ei%2 == 1 {
				k = trace.EvExit
			}
			tr.Append(l, trace.Event{Kind: k, Time: uint64(ei + 1), Region: reg})
		}
	}
	return tr
}

// TestHubMatchesPairwiseExpansion replays hubs and their explicit
// pairwise expansion and requires identical vectors or identical cycle
// errors — for clean hubs, for hubs that must fall back to explicit
// edges (a location listed twice, a source at or after its target) and
// for hubs whose instances cross into a cycle.
func TestHubMatchesPairwiseExpansion(t *testing.T) {
	part := func(loc, src, tgt int) Part {
		return Part{Source: EventRef{loc, src}, Target: EventRef{loc, tgt}}
	}
	cases := []struct {
		name   string
		nloc   int
		hubs   []Hub
		edges  []Edge
		cyclic bool
	}{
		{
			name: "clean",
			nloc: 4,
			hubs: []Hub{
				{part(0, 0, 1), part(1, 0, 1), part(2, 2, 3), part(3, 0, 1)},
				{part(0, 4, 5), part(1, 2, 3), part(2, 4, 5)},
			},
			edges: []Edge{{From: EventRef{3, 2}, To: EventRef{0, 2}}},
		},
		{
			name: "source-after-target",
			nloc: 3,
			hubs: []Hub{{part(0, 3, 1), part(1, 0, 1), part(2, 0, 1)}},
		},
		{
			name: "source-at-target",
			nloc: 3,
			hubs: []Hub{{part(0, 2, 2), part(1, 0, 1), part(2, 0, 1)}},
		},
		{
			name: "repeated-location",
			nloc: 3,
			hubs: []Hub{{part(0, 0, 1), part(1, 0, 1), part(0, 2, 3), part(2, 0, 3)}},
		},
		{
			name: "crossing-cycle",
			nloc: 2,
			hubs: []Hub{
				{part(0, 0, 1), part(1, 2, 3)},
				{part(0, 2, 3), part(1, 0, 1)},
			},
			cyclic: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := hubTrace(tc.nloc, 6)
			explicit := append(append([]Edge(nil), tc.edges...), expand(tc.hubs)...)
			want, wantErr := referenceVectors(tr, explicit)
			got, err := ComputeSync(tr, tc.edges, tc.hubs, nil)
			if (wantErr != nil) != tc.cyclic {
				t.Fatalf("reference replay error %v, cyclic=%v", wantErr, tc.cyclic)
			}
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("hub replay error %v, want %v", err, wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			sameVectors(t, got, want)
			pairwise, err := ComputeFromEdges(tr, explicit)
			if err != nil {
				t.Fatal(err)
			}
			sameVectors(t, pairwise, want)
		})
	}
}

// TestComputeMatchesReference pins Compute's full vectors to the
// pairwise reference replay on real traces with messages, forks, joins,
// barriers and collectives.
func TestComputeMatchesReference(t *testing.T) {
	for _, tr := range []*trace.Trace{handTrace(), measuredTrace(t, core.ModeLt1, noise.Params{})} {
		edges, err := Edges(tr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceVectors(tr, edges)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compute(tr)
		if err != nil {
			t.Fatal(err)
		}
		sameVectors(t, c, want)
	}
}

// TestHappensBeforeMatchesComponentwise checks the O(1) happens-before
// test against the component-wise vector order on every event pair of a
// small real trace.
func TestHappensBeforeMatchesComponentwise(t *testing.T) {
	tr := measuredTrace(t, core.ModeLt1, noise.Params{})
	c, err := Compute(tr)
	if err != nil {
		t.Fatal(err)
	}
	less := func(va, vb []uint32) bool {
		lt := false
		for i := range va {
			if va[i] > vb[i] {
				return false
			}
			lt = lt || va[i] < vb[i]
		}
		return lt
	}
	var refs []EventRef
	for li := range tr.Locs {
		for ei := range tr.Locs[li].Events {
			refs = append(refs, EventRef{li, ei})
		}
	}
	ordered := 0
	for _, a := range refs {
		for _, b := range refs {
			want := less(c.Vector(a), c.Vector(b))
			if got := c.HappensBefore(a, b); got != want {
				t.Fatalf("HappensBefore(%v, %v) = %v, component-wise %v", a, b, got, want)
			}
			if want && a.Loc != b.Loc {
				ordered++
			}
		}
	}
	if ordered == 0 {
		t.Fatal("no cross-location ordered pair: the trace exercises nothing")
	}
}

// TestComputeSyncRetainsOnlyKept checks that a retained-subset replay
// keeps exactly the selected events' vectors, equal to the full replay's.
func TestComputeSyncRetainsOnlyKept(t *testing.T) {
	tr := measuredTrace(t, core.ModeLt1, noise.Params{})
	edges, err := Edges(tr)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ComputeFromEdges(tr, edges)
	if err != nil {
		t.Fatal(err)
	}
	keep := make([][]int, len(tr.Locs))
	for li := range tr.Locs {
		for ei := 0; ei < len(tr.Locs[li].Events); ei += 3 {
			keep[li] = append(keep[li], ei)
		}
	}
	part, err := ComputeSync(tr, edges, nil, keep)
	if err != nil {
		t.Fatal(err)
	}
	for li := range tr.Locs {
		for ei := range tr.Locs[li].Events {
			ref := EventRef{li, ei}
			got := part.Vector(ref)
			if ei%3 != 0 {
				if got != nil {
					t.Fatalf("%v: vector retained but not kept", ref)
				}
				continue
			}
			if !slices.Equal(got, full.Vector(ref)) {
				t.Fatalf("%v: kept vector %v, full replay %v", ref, got, full.Vector(ref))
			}
		}
	}
}
