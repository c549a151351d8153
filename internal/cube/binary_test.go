package cube

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// cancelledSample is buildSample plus the cells a JSON round trip used
// to lose or alter: one whose values cancel to exactly zero, one holding
// -0.0, and one holding a NaN.
func cancelledSample() *Profile {
	p := buildSample()
	time, _ := p.MetricByName("time")
	comp, _ := p.MetricByName("comp")
	idle := p.AddMetric("idle", "", time)
	main := p.Path(NoParent, "main")
	halo := p.Path(main, "halo")
	p.Add(comp, halo, 1, 2.5)
	p.Add(comp, halo, 1, -2.5) // present, all zero
	p.cell(idle, main)[0] = math.Copysign(0, -1)
	p.cell(idle, halo)[1] = math.NaN()
	return p
}

func writeJSON(t *testing.T, p *Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func csvOf(t *testing.T, p *Profile, metric string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf, metric); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// A cell whose values cancel to zero is present: Write lists it, so Read
// must keep it, or Write→Read→Write changes the bytes and the CSV loses
// a row.
func TestJSONRoundTripKeepsCancelledCells(t *testing.T) {
	p := buildSample()
	comp, _ := p.MetricByName("comp")
	halo := p.Path(p.Path(NoParent, "main"), "halo")
	p.Add(comp, halo, 0, 1.25)
	p.Add(comp, halo, 0, -1.25)
	p.cell(comp, p.Path(NoParent, "main"))[0] = math.Copysign(0, -1)
	first := writeJSON(t, p)
	got, err := Read(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if second := writeJSON(t, got); !bytes.Equal(first, second) {
		t.Fatalf("Write→Read→Write changed the bytes:\n%s\n%s", first, second)
	}
	if want, have := csvOf(t, p, "comp"), csvOf(t, got, "comp"); want != have {
		t.Fatalf("CSV rows differ after the round trip:\n%s\n%s", want, have)
	}
	if !strings.Contains(csvOf(t, got, "comp"), "main/halo,0,0") {
		t.Fatal("cancelled cell missing from the CSV")
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatal("JSON round trip is not deep-equal")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	p := cancelledSample()
	b := p.AppendBinary(nil)
	got, err := ReadBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	// DeepEqual treats NaN as unequal to itself, so compare the bits of
	// every value and the rest structurally.
	idle, _ := p.MetricByName("idle")
	halo := PathID(len(p.Paths) - 1)
	if bits := math.Float64bits(got.Value(idle, halo, 1)); bits != math.Float64bits(p.Value(idle, halo, 1)) {
		t.Fatalf("NaN payload changed: %#x", bits)
	}
	got.sev[idle][halo][1], p.sev[idle][halo][1] = 7, 7
	if !reflect.DeepEqual(got, p) {
		t.Fatal("binary round trip is not deep-equal")
	}
	if !math.Signbit(got.Value(idle, 0, 0)) {
		t.Fatal("-0.0 lost its sign")
	}
	if again := got.AppendBinary(nil); !bytes.Equal(again, p.AppendBinary(nil)) {
		t.Fatal("binary encoding is not stable across a round trip")
	}
	if want, have := writeJSON(t, p), writeJSON(t, got); !bytes.Equal(want, have) {
		t.Fatal("binary round trip changed the JSON")
	}
}

// The dense layout depends only on which cells are present, so a
// profile filled in any order — or decoded — is deep-equal to one built
// in another.  Cache hits rely on this to equal fresh analyses.
func TestLayoutIndependentOfFillOrder(t *testing.T) {
	locs := []string{"a", "b", "c"}
	type add struct {
		m, path, loc int
		v            float64
	}
	var adds []add
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		adds = append(adds, add{rng.Intn(4), rng.Intn(12), rng.Intn(3), float64(rng.Intn(5))})
	}
	build := func(order []int, pathsFirst bool) *Profile {
		p := New("lt_1", locs)
		for m := 0; m < 4; m++ {
			p.AddMetric(string(rune('w'+m)), "", NoParent)
		}
		path := func(i int) PathID { return p.Path(NoParent, string(rune('a'+i))) }
		if pathsFirst {
			for i := 0; i < 12; i++ {
				path(i)
			}
		}
		for _, i := range order {
			a := adds[i]
			// Intern paths in a fixed order regardless of fill order.
			for j := 0; j <= a.path; j++ {
				path(j)
			}
			p.Add(MetricID(a.m), PathID(a.path), a.loc, a.v)
		}
		for i := 0; i < 12; i++ {
			path(i)
		}
		return p
	}
	order := rng.Perm(len(adds))
	sorted := make([]int, len(adds))
	for i := range sorted {
		sorted[i] = i
	}
	// Exact float sums need a fixed order per cell; integers keep them
	// exact in any order.
	a, b := build(sorted, false), build(order, true)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("fill order changed the profile's layout")
	}
	decoded, err := ReadBinary(a.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, a) {
		t.Fatal("decoded profile differs from the one built by Add")
	}
}

func TestReadBinaryRejectsCorruption(t *testing.T) {
	good := cancelledSample().AppendBinary(nil)
	for i := 0; i < len(good); i++ {
		if _, err := ReadBinary(good[:i]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", i, len(good))
		}
	}
	if _, err := ReadBinary(append(good[:len(good):len(good)], 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A path whose parent is itself would make PathString loop forever.
	cyc := New("tsc", nil)
	cyc.Paths = append(cyc.Paths, CallPath{Name: "p", Parent: 0})
	if _, err := ReadBinary(cyc.AppendBinary(nil)); err == nil {
		t.Fatal("cyclic call path accepted")
	}
	// Flipping bytes must error or decode; never panic.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := append([]byte(nil), good...)
		b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
		_, _ = ReadBinary(b)
	}
}

// Rows are iterated in id order, so sums whose float rounding depends
// on the order of addition (Total, the metric tree, per-location
// totals) and row orders (CSV, Imbalance ties) come out the same on
// every call.
func TestIterationIsDeterministic(t *testing.T) {
	render := func() string {
		p := New("tsc", []string{"r0", "r1"})
		time := p.AddMetric("time", "", NoParent)
		main := p.Path(NoParent, "main")
		for i := 0; i < 40; i++ {
			path := p.Path(main, fmt.Sprintf("region_%02d", i))
			for l := 0; l < 2; l++ {
				p.Add(time, path, l, 1/float64(i+3+l))
			}
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "%x\n", math.Float64bits(p.Total(time)))
		p.RenderMetricTree(&buf)
		p.RenderLocations(&buf, "time")
		buf.WriteString(csvOf(t, p, "time"))
		for _, s := range p.Imbalance("time", 0) {
			fmt.Fprintf(&buf, "%s %x\n", s.Path, math.Float64bits(s.Ratio))
		}
		return buf.String()
	}
	first := render()
	for i := 0; i < 20; i++ {
		if render() != first {
			t.Fatal("rendered output changed between calls")
		}
	}
}
