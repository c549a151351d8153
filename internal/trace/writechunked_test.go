package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
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
				var got bytes.Buffer
				if err := writeChunked(&got, tr, chunk); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("writeChunked differs from the Record loop (%d vs %d bytes)", got.Len(), len(want))
				}
				back, err := ReadBytes(got.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				equalTraces(t, back, tr)
			})
		}
	}
}

// ReadBytes sizes each location from the index; a decode must not grow
// any slice past that.
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

// An index is only a sizing hint: one that lies — within its CRC — about
// the per-location totals must neither change the decode nor, when it
// claims more events than the image could hold, allocate for them.
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
		if hint := presizeHint(img); total > uint64(len(img))*maxPresizeEventsPerByte && hint != nil {
			t.Fatalf("total %d: presized %v from an index the image cannot back", total, hint)
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
