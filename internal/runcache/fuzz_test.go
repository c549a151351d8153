package runcache

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/cube"
	"repro/internal/trace"
)

// fuzzEntry is a valid entry with every section populated: a trace of
// several locations (one empty), a profile with a cancelled cell,
// phases, checks and an applied-fault log.
func fuzzEntry() *Entry {
	tr := trace.New("lt_1")
	reg := tr.Region("main", trace.RoleUser)
	coll := tr.Region("MPI_Allreduce", trace.RoleMPIColl)
	for l := 0; l < 4; l++ {
		tr.AddLocation(l, 0)
	}
	for l := 0; l < 3; l++ {
		for i := 0; i < 40; i++ {
			r := reg
			if i%3 == 0 {
				r = coll
			}
			tr.Record(l, trace.Event{Kind: trace.EvKind(i % 2), Time: uint64(10*i + l), Region: r, A: int32(i), C: int64(l)})
		}
	}
	p := cube.New("lt_1", []string{"r0t0", "r1t0", "r2t0", "r3t0"})
	time := p.AddMetric("time", "Total time", cube.NoParent)
	comp := p.AddMetric("comp", "Computation", time)
	main := p.Path(cube.NoParent, "main")
	allr := p.Path(main, "MPI_Allreduce")
	for l := 0; l < 3; l++ {
		p.Add(time, main, l, float64(l)+0.5)
		p.Add(time, allr, l, 1/float64(l+3))
	}
	p.Add(comp, allr, 2, 4)
	p.Add(comp, allr, 2, -4) // present, all zero
	return &Entry{
		Mode: "lt_1", Wall: 1.5, FoM: 3, Phases: map[string]float64{"solve": 1.25},
		Checks: []float64{0.5}, Trace: tr, Profile: p,
		Applied: []AppliedFault{{Kind: "oneoff", Rank: 1, Core: -1, At: 0.25, Magnitude: 0.1}},
	}
}

func encoded(tb testing.TB, e *Entry) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := encodeEntry(&buf, e); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// entryAllocCap is the most a decode of an n-byte image may allocate:
// a fixed allowance (decoder state, the profile decoder's cell slack)
// plus a bounded multiple of the image, which every size taken from
// inside the image — presized event slices, cell storage, counts — is
// capped by.
func entryAllocCap(n int) uint64 { return 32<<20 + 2048*uint64(n) }

// FuzzDecodeEntry holds the cache's read contract: any image decodes to
// a valid entry or fails (a miss) — never a panic, never an allocation
// beyond entryAllocCap — and one that decodes re-encodes to itself.
// The committed corpus adds truncations, flipped profile bytes, a trace
// index claiming more events than the entry holds and a trace chunk
// header claiming 64M events.
func FuzzDecodeEntry(f *testing.F) {
	f.Add([]byte{})
	f.Add(encoded(f, fuzzEntry()))
	f.Add(encoded(f, sampleEntry()))
	f.Add(encoded(f, &Entry{Mode: "", Wall: 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := decodeEntry(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > entryAllocCap(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d (cap %d)", len(data), n, entryAllocCap(len(data)))
		}
		if err != nil {
			return
		}
		again := encoded(t, e)
		back, err := decodeEntry(again)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		if !bytes.Equal(encoded(t, back), again) {
			t.Fatal("entry encoding is not stable")
		}
	})
}
