package trace

import (
	"bytes"
	"testing"
)

// FuzzChunkReader feeds arbitrary bytes to every chunked-trace entry
// point: both must either decode cleanly or return a structured error —
// never panic, hang, or over-allocate on a corrupted varint.
func FuzzChunkReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add([]byte(magic + "\x02"))
	tr := bigSampleFuzz()
	var buf bytes.Buffer
	if err := WriteChunked(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-12])
	for _, at := range []int{6, 20, len(valid) / 2, len(valid) - 20} {
		c := append([]byte(nil), valid...)
		c[at] ^= 0xff
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err == nil && tr == nil {
			t.Fatal("Read returned nil trace and nil error")
		}
		// ReadBytes only presizes from the index; it must decode exactly
		// what Read decodes.
		trb, errb := ReadBytes(data)
		if (err == nil) != (errb == nil) {
			t.Fatalf("Read error %v, ReadBytes error %v", err, errb)
		}
		if err == nil {
			var a, b bytes.Buffer
			if tr.Write(&a) != nil || trb.Write(&b) != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("ReadBytes decoded a different trace than Read")
			}
		}
		cf, err := NewChunkFile(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// Whatever survived must iterate to completion (clean or with a
		// structured error) without panicking.
		st := cf.Stream()
		for loc := 0; loc < st.NumLocs(); loc++ {
			cur := st.Cursor(loc)
			for _, ok := cur.Next(); ok; _, ok = cur.Next() {
			}
		}
		m := st.Merged()
		for _, ok := m.Next(); ok; _, ok = m.Next() {
		}
	})
}

func bigSampleFuzz() *Trace {
	tr := New("lt_stmt")
	reg := tr.Region("r", RoleUser)
	l0 := tr.AddLocation(0, 0)
	l1 := tr.AddLocation(1, 0)
	for i := 0; i < 80; i++ {
		tr.Append(l0, Event{Kind: EvKind(i % 8), Time: uint64(i * 2), Region: reg, A: int32(i), C: int64(i)})
		tr.Append(l1, Event{Kind: EvKind(i % 3), Time: uint64(i*2 + 1), Region: reg, B: int32(i)})
	}
	return tr
}
