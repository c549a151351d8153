package trace

import (
	"testing"
	"unsafe"
)

// TestRecordSteadyStateAllocFree gates the measurement system's per-event
// hot path: once a location's stream has reached capacity, Record must
// not allocate at all.
func TestRecordSteadyStateAllocFree(t *testing.T) {
	tr := New("tsc")
	l := tr.AddLocation(0, 0)
	reg := tr.Region("main", RoleUser)
	for i := 0; i < 4096; i++ {
		tr.Record(l, Event{Kind: EvEnter, Time: uint64(i), Region: reg})
	}
	tr.ResetEvents()
	i := uint64(0)
	avg := testing.AllocsPerRun(1000, func() {
		tr.Record(l, Event{Kind: EvEnter, Time: i, Region: reg})
		i++
	})
	if avg != 0 {
		t.Fatalf("Record allocated %.2f objects per event in steady state, want 0", avg)
	}
}

// TestRecordGrowthFloor pins the 256-event growth floor: the first
// reallocation jumps straight to 256 capacity rather than crawling
// through append's small sizes.
func TestRecordGrowthFloor(t *testing.T) {
	tr := New("tsc")
	l := tr.AddLocation(0, 0)
	tr.Record(l, Event{})
	if c := cap(tr.Locs[l].Events); c < 256 {
		t.Fatalf("first Record grew capacity to %d, want at least 256", c)
	}
}

// TestEventSize pins the in-memory event at 32 bytes: every materialized
// trace, recorder chunk and decode buffer is sized in events, so a field
// order that reintroduces padding costs a quarter more memory everywhere.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 32", n)
	}
}
