package bench

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/noise"
	"repro/internal/trace"
)

// TestStreamedReplayAllocBudget is the PR's headline gate.  Two claims
// are pinned, each against the workload that can honestly carry it:
//
//   - Full replay: cursors reuse one window and one decompressor per
//     location, so allocated *bytes* per op must sit at least 5x below
//     materializing the same trace (in practice the gap is >100x).
//     Allocation *count* is not compared here: profiles show both
//     full-decode paths are dominated by compress/flate's per-block
//     Huffman table setup, which they pay identically, so the count
//     ratio is pinned near 1 by construction.  The streamed count is
//     instead held under an absolute per-op budget.
//   - Ranged replay: the chunk index lets a one-chunk vtime window
//     decode only the overlapping chunks, so both bytes/op and
//     allocs/op must be at least 5x below the materialized baseline —
//     which, like every pre-index consumer, has to decode everything
//     before it can filter.
func TestStreamedReplayAllocBudget(t *testing.T) {
	// Absolute ceiling on the streamed full replay's allocation count:
	// ~2 Huffman tables per chunk (8 locs x ~13 chunks) plus cursor
	// bookkeeping lands around 900; 2048 leaves headroom without letting
	// a per-event allocation (100k events) sneak back in.
	const streamAllocBudget = 2048

	stream, err := tracePipeReplayStream()
	if err != nil {
		t.Fatal(err)
	}
	mat, err := tracePipeReplayMaterialized()
	if err != nil {
		t.Fatal(err)
	}
	rng, err := tracePipeRangeStream()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Measure("TracePipeReplayStream", stream, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := Measure("TracePipeReplayMaterialized", mat, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := Measure("TracePipeRangeStream", rng, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("streamed: %.0f bytes/op %.0f allocs/op; ranged: %.0f bytes/op %.0f allocs/op; materialized: %.0f bytes/op %.0f allocs/op",
		ms.BytesPerOp, ms.AllocsPerOp, mr.BytesPerOp, mr.AllocsPerOp, mm.BytesPerOp, mm.AllocsPerOp)
	if ms.BytesPerOp*5 > mm.BytesPerOp {
		t.Errorf("streamed replay bytes/op %.0f not 5x below materialized %.0f",
			ms.BytesPerOp, mm.BytesPerOp)
	}
	if ms.AllocsPerOp > streamAllocBudget {
		t.Errorf("streamed replay allocs/op %.0f over the absolute budget %d",
			ms.AllocsPerOp, streamAllocBudget)
	}
	if mr.BytesPerOp*5 > mm.BytesPerOp {
		t.Errorf("ranged replay bytes/op %.0f not 5x below materialized %.0f",
			mr.BytesPerOp, mm.BytesPerOp)
	}
	// The ranged replay allocates little beyond pooled decode state,
	// which the race runtime's sync.Pool drops at random: under -race
	// this count measures the detector, so only this ratio is fenced.
	if !raceDetectorEnabled && mr.AllocsPerOp*5 > mm.AllocsPerOp {
		t.Errorf("ranged replay allocs/op %.0f not 5x below materialized %.0f",
			mr.AllocsPerOp, mm.AllocsPerOp)
	}
}

// TestMillionEventReplayHeapBudget pins the bounded-memory claim at the
// target scale: a one-million-event chunked trace is written to disk
// with the spill-to-disk writer and replayed through cursors, and the
// whole replay must stay within a fixed allocation budget — far below
// the ~48 MB the materialized event slices alone would cost.
func TestMillionEventReplayHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and replays a million-event trace")
	}
	const (
		events = 1_000_000
		locs   = 8
		// Budgets, deliberately generous against GC timing but an order
		// of magnitude below materialization: the replay may allocate at
		// most 16 MB in total, and retain at most 8 MB after it.
		allocBudget  = 16 << 20
		retainBudget = 8 << 20
	)
	path := filepath.Join(t.TempDir(), "big.ltrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cw := trace.NewChunkWriter(f, "lt_stmt")
	regions := tracePipeRegions(cw.Region)
	for li := 0; li < locs; li++ {
		loc := cw.AddLocation(li, 0)
		tracePipeAppend(li, events/locs, regions, func(e trace.Event) { cw.Record(loc, e) })
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err == nil {
		t.Logf("on-disk size: %d bytes (%.2f bytes/event)", fi.Size(), float64(fi.Size())/events)
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	cf, err := trace.OpenChunkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if !cf.IndexOK {
		t.Fatal("chunk index missing on a freshly written file")
	}
	st := cf.Stream()
	n := 0
	for li := 0; li < st.NumLocs(); li++ {
		cur := st.Cursor(li)
		for _, ok := cur.Next(); ok; _, ok = cur.Next() {
			n++
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if n != events {
		t.Fatalf("replayed %d events, want %d", n, events)
	}

	var during runtime.MemStats
	runtime.ReadMemStats(&during)
	allocated := during.TotalAlloc - before.TotalAlloc
	t.Logf("streamed replay of %d events allocated %d bytes total (%.2f bytes/event)",
		events, allocated, float64(allocated)/events)
	if allocated > allocBudget {
		t.Errorf("streamed replay allocated %d bytes, budget %d", allocated, allocBudget)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc+retainBudget {
		t.Errorf("HeapAlloc grew from %d to %d, over the %d retain budget",
			before.HeapAlloc, after.HeapAlloc, retainBudget)
	}
}

// TestTraceCheckAllocBudget gates the linear-size happens-before
// reconstruction of tracecheck.  TeaLeaf-4's collectives span 128 ranks,
// so materializing each instance's k(k-1) release edges, or a fresh
// 128-wide vector per event, costs several hundred bytes to kilobytes
// per trace event (the pairwise form allocated ~245 MB per verify of
// this 83k-event trace, ~3 KB/event).  Keeping one record per instance,
// rolling per-location vectors and only the sampled events' vectors
// allocates ~120 bytes/event; the budget leaves headroom for that but
// not for either quadratic or per-event-vector materialization.
func TestTraceCheckAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates TeaLeaf-4")
	}
	const bytesPerEventBudget = 256

	ins, err := traceCheckTeaLeaf4()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Measure("TraceCheckTeaLeaf4", ins, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	perEvent := m.BytesPerOp / float64(ins.Events)
	t.Logf("verify of %d events: %.0f bytes/op (%.0f bytes/event), %.0f allocs/op",
		ins.Events, m.BytesPerOp, perEvent, m.AllocsPerOp)
	if perEvent > bytesPerEventBudget {
		t.Errorf("tracecheck.Verify allocates %.0f bytes/event, budget %d", perEvent, bytesPerEventBudget)
	}
}

// TestWriteChunkedAllocBudget gates the encoder of materialized traces,
// which every run-cache Put goes through.  WriteChunked encodes chunks
// straight from each location's event slice; staging them in a fresh
// per-location ChunkEvents buffer (128 KiB) instead costs ~230 bytes per
// event on this trace's 256 mostly one-chunk locations.  What is left —
// the encode and compression buffers, reused across chunks, and the
// index — is a few bytes per event.
func TestWriteChunkedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates LULESH-1")
	}
	const bytesPerEventBudget = 32

	spec, err := experiment.SpecByName("LULESH-1", experiment.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.Run(spec, core.ModeLt1, 1, noise.Cluster(), false)
	if err != nil {
		t.Fatal(err)
	}
	events := res.Trace.NumEvents()
	ins := &Instance{
		Events: int64(events),
		Op:     func() error { return trace.WriteChunked(io.Discard, res.Trace) },
	}
	m, err := Measure("WriteChunkedLULESH1", ins, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	perEvent := m.BytesPerOp / float64(events)
	t.Logf("encode of %d events in %d locations: %.0f bytes/op (%.1f bytes/event), %.0f allocs/op",
		events, len(res.Trace.Locs), m.BytesPerOp, perEvent, m.AllocsPerOp)
	if perEvent > bytesPerEventBudget {
		t.Errorf("trace.WriteChunked allocates %.1f bytes/event, budget %d", perEvent, bytesPerEventBudget)
	}
}
