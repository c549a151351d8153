package experiment

import (
	"bytes"
	"testing"
)

// Fig 9's "other" column is 100 minus sums of path percentages.  Summed
// in map order those flip low digits — visibly, between -0.0 and 0.0 —
// from one render of the same study to the next; summed in path order
// and over id-ordered profile totals, the bytes are fixed.
func TestFig9RendersIdenticalBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a LULESH-1 study")
	}
	spec, err := SpecByName("LULESH-1", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunStudy(spec, StudyOptions{Reps: 2, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		Fig9(&buf, st)
		if i == 0 {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("render %d differs from the first:\n%s\n---\n%s", i, first, buf.Bytes())
		}
	}
}
