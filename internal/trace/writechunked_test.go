package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"
)

// randomTrace builds a seeded trace whose locations have the given
// event counts, with random kinds, regions, payloads and time steps.
func randomTrace(rng *rand.Rand, counts []int) *Trace {
	tr := New("lt_stmt")
	regions := []RegionID{
		tr.Region("main", RoleUser),
		tr.Region("MPI_Allreduce", RoleMPIColl),
		tr.Region("omp_barrier", RoleOmpBarrier),
	}
	for li := range counts {
		tr.AddLocation(li/2, li%2)
	}
	for li, n := range counts {
		var tm uint64
		for i := 0; i < n; i++ {
			tm += uint64(rng.Intn(1 << uint(rng.Intn(40))))
			tr.Record(li, Event{
				Kind: EvKind(rng.Intn(8)), Time: tm, Region: regions[rng.Intn(len(regions))],
				A: rng.Int31() - 1<<30, B: int32(rng.Intn(64)), C: rng.Int63() - 1<<62,
			})
		}
	}
	return tr
}

// WriteChunked encodes straight from the trace's event slices; its bytes
// must equal those of recording the same trace through a ChunkWriter
// event by event, for every mix of empty, one-event, exactly k-chunk and
// ragged locations and for other chunk sizes.
func TestWriteChunkedMatchesRecordLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, chunk := range []int{DefaultChunkEvents, 1, 7, 64} {
		shapes := [][]int{
			{},
			{0},
			{0, 0, 0},
			{1},
			{1, 0, 1},
			{chunk},
			{2 * chunk, 0, chunk, 1},
			{chunk - 1, chunk + 1, 3*chunk + 2},
		}
		for i := 0; i < 6; i++ {
			counts := make([]int, 1+rng.Intn(6))
			for j := range counts {
				switch rng.Intn(4) {
				case 0:
					counts[j] = 0
				case 1:
					counts[j] = chunk * (1 + rng.Intn(3))
				default:
					counts[j] = rng.Intn(3*chunk + 2)
				}
			}
			shapes = append(shapes, counts)
		}
		for _, counts := range shapes {
			t.Run(fmt.Sprintf("chunk=%d/%v", chunk, counts), func(t *testing.T) {
				tr := randomTrace(rng, counts)
				want := chunkedBytes(t, tr, chunk)
				for _, workers := range []int{1, 2, 8} {
					withCodecWorkers(t, workers)
					var got bytes.Buffer
					if err := writeChunked(&got, tr, chunk); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want) {
						t.Fatalf("%d workers: writeChunked differs from the Record loop (%d vs %d bytes)",
							workers, got.Len(), len(want))
					}
					back, err := ReadBytes(got.Bytes())
					if err != nil {
						t.Fatalf("%d workers: %v", workers, err)
					}
					equalTraces(t, back, tr)
				}
			})
		}
	}
}

// withCodecWorkers runs the chunk codec on n workers until the test
// ends.
func withCodecWorkers(t testing.TB, n int) {
	old := codecWorkers
	codecWorkers = func() int { return n }
	t.Cleanup(func() { codecWorkers = old })
}

// readWithWorkers is ReadBytes with the codec on n workers.
func readWithWorkers(b []byte, n int) (*Trace, error) {
	old := codecWorkers
	codecWorkers = func() int { return n }
	defer func() { codecWorkers = old }()
	return ReadBytes(b)
}

// withChunkHeader rewrites the header of the k-th chunk record (in file
// order) of a chunked image to claim nev events of rawLen raw bytes.
// The records after it shift, so the trailer no longer points at the
// index; ReadBytes does not consult it.
func withChunkHeader(t testing.TB, img []byte, k int, nev, rawLen uint64) []byte {
	t.Helper()
	cf, err := NewChunkFile(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	c := cf.Chunks()[k]
	p := &posReader{br: bytes.NewReader(img[c.Offset+1:]), off: c.Offset + 1}
	h, err := readChunkHeader(p, c.Offset)
	if err != nil {
		t.Fatal(err)
	}
	u := binary.AppendUvarint
	out := append([]byte(nil), img[:c.Offset]...)
	out = append(out, tagChunk)
	for _, v := range []uint64{uint64(h.info.Loc), nev, h.info.FirstTime, h.info.LastTime, rawLen, uint64(h.info.CompLen)} {
		out = u(out, v)
	}
	out = binary.LittleEndian.AppendUint32(out, h.crc)
	return append(out, img[p.off:]...)
}

// headerLies returns images of tr whose one chunk header misstates its
// event count: one event too many, one too few, and as many as the
// format's caps allow, named for the corpus.
func headerLies(t testing.TB, img []byte, k int) map[string][]byte {
	c := mustChunks(t, img)[k]
	return map[string][]byte{
		"header-events-over":  withChunkHeader(t, img, k, uint64(c.Events)+1, uint64(c.RawLen)),
		"header-events-under": withChunkHeader(t, img, k, uint64(c.Events)-1, uint64(c.RawLen)),
		"header-events-max":   withChunkHeader(t, img, k, maxChunkBytes+1, maxChunkBytes),
	}
}

// A chunk header that lies about its event count must fail the read
// with the same error at every worker count — the lying chunk's, not a
// later one's — and, claiming 64M events in a few bytes, must not
// allocate for them.
func TestReadBytesHeaderLiesAboutEvents(t *testing.T) {
	tr := bigSample(3, 200)
	img := chunkedBytes(t, tr, 32)
	c := mustChunks(t, img)[2]
	got, err := ReadBytes(withChunkHeader(t, img, 2, uint64(c.Events), uint64(c.RawLen)))
	if err != nil {
		t.Fatalf("rewriting a header with its own fields broke the image: %v", err)
	}
	equalTraces(t, got, tr)
	for name, bad := range headerLies(t, img, 2) {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err1 := readWithWorkers(bad, 1)
			runtime.ReadMemStats(&after)
			if err1 == nil {
				t.Fatal("lying header decoded cleanly")
			}
			var re *RecordError
			if !errors.As(err1, &re) || !errors.Is(err1, ErrBadChunk) || re.Chunk != 3 || re.Loc != 0 {
				t.Fatalf("error does not name location 0 chunk 3 as corrupt: %v", err1)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20+512*uint64(len(bad)) {
				t.Fatalf("decoding %d bytes allocated %d", len(bad), n)
			}
			for _, workers := range []int{2, 8} {
				if _, err := readWithWorkers(bad, workers); err == nil || err.Error() != err1.Error() {
					t.Fatalf("%d workers: error %v, want %v", workers, err, err1)
				}
			}
		})
	}
}

func mustChunks(t testing.TB, img []byte) []ChunkInfo {
	t.Helper()
	cf, err := NewChunkFile(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	return cf.Chunks()
}

// ReadBytes sizes each location from its chunk headers; a decode must
// not grow any slice past that.
func TestReadBytesPresizes(t *testing.T) {
	tr := bigSample(5, 3*DefaultChunkEvents+11)
	var buf bytes.Buffer
	if err := WriteChunked(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	equalTraces(t, got, tr)
	for li, l := range got.Locs {
		if cap(l.Events) != len(l.Events) {
			t.Fatalf("location %d: cap %d for %d events", li, cap(l.Events), len(l.Events))
		}
	}
}

// ReadBytes sizes locations from the chunk headers it walks, never from
// the index: one that lies — within its CRC — about the per-location
// totals must neither change the decode nor its allocation.
func TestReadBytesDistrustsIndex(t *testing.T) {
	tr := bigSample(3, 100)
	var buf bytes.Buffer
	if err := WriteChunked(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withIndexTotals(t, buf.Bytes(), 100), buf.Bytes()) {
		t.Fatal("rewriting the index with its own totals changed the image")
	}
	for _, total := range []uint64{0, 1, 99, 101, 1 << 40} {
		img := withIndexTotals(t, buf.Bytes(), total)
		got, err := ReadBytes(img)
		if err != nil {
			t.Fatalf("total %d: %v", total, err)
		}
		equalTraces(t, got, tr)
		for li, l := range got.Locs {
			if cap(l.Events) != len(l.Events) {
				t.Fatalf("total %d: location %d sized %d for %d events", total, li, cap(l.Events), len(l.Events))
			}
		}
	}
}

// withIndexTotals rewrites a chunked image's index so that every
// location claims total events, with a valid CRC and trailer.
func withIndexTotals(t *testing.T, img []byte, total uint64) []byte {
	t.Helper()
	regions, locs, chunks, ok := readIndex(bytes.NewReader(img), int64(len(img)))
	if !ok {
		t.Fatal("image has no valid index")
	}
	u := binary.AppendUvarint
	body := u(nil, uint64(len(regions)))
	for _, r := range regions {
		body = append(u(body, uint64(len(r.Name))), r.Name...)
		body = append(body, byte(r.Role))
	}
	body = u(body, uint64(len(locs)))
	for _, l := range locs {
		body = u(u(u(body, uint64(l.Rank)), uint64(l.Thread)), total)
	}
	body = u(body, uint64(len(chunks)))
	for _, c := range chunks {
		for _, v := range []uint64{uint64(c.Offset), uint64(c.Loc), uint64(c.Events),
			c.FirstTime, c.LastTime, uint64(c.RawLen), uint64(c.CompLen)} {
			body = u(body, v)
		}
	}
	off := binary.LittleEndian.Uint64(img[len(img)-12:])
	out := append([]byte(nil), img[:off]...)
	out = append(u(append(out, tagIndex), uint64(len(body))), body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	out = binary.LittleEndian.AppendUint64(out, off)
	return append(out, indexMagic...)
}

// A genuine trace can be denser than the presize budget: identical
// events compress to well under a byte each.  Its chunks decode in
// order with growing locations, to the same trace at any worker count.
func TestReadBytesPastPresizeBudget(t *testing.T) {
	tr := New("lt_1")
	tr.Region("main", RoleUser)
	for l := 0; l < 2; l++ {
		tr.AddLocation(l, 0)
		for i := 0; i < 5*DefaultChunkEvents+3; i++ {
			tr.Record(l, Event{})
		}
	}
	var buf bytes.Buffer
	if err := WriteChunked(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if n := uint64(tr.NumEvents()); n <= uint64(buf.Len())*maxPresizeEventsPerByte {
		t.Fatalf("%d events in %d bytes fit the presize budget; the test needs a denser image", n, buf.Len())
	}
	for _, workers := range []int{1, 8} {
		got, err := readWithWorkers(buf.Bytes(), workers)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		equalTraces(t, got, tr)
	}
}
