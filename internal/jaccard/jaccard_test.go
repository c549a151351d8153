package jaccard

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestIdenticalMappingsScoreOne(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 2.5}
	if s := Score(a, a); s != 1 {
		t.Fatalf("J(A,A) = %g, want 1", s)
	}
}

func TestDisjointSupportsScoreZero(t *testing.T) {
	a := map[string]float64{"x": 1}
	b := map[string]float64{"y": 1}
	if s := Score(a, b); s != 0 {
		t.Fatalf("disjoint J = %g, want 0", s)
	}
}

func TestEmptyMappings(t *testing.T) {
	if s := Score(nil, nil); s != 1 {
		t.Fatalf("J(∅,∅) = %g, want 1", s)
	}
	if s := Score(map[string]float64{"x": 1}, nil); s != 0 {
		t.Fatalf("J(A,∅) = %g, want 0", s)
	}
}

func TestKnownValue(t *testing.T) {
	a := map[string]float64{"x": 2, "y": 1}
	b := map[string]float64{"x": 1, "y": 3}
	// min: 1+1=2, max: 2+3=5
	if s := Score(a, b); math.Abs(s-0.4) > 1e-12 {
		t.Fatalf("J = %g, want 0.4", s)
	}
}

func TestNegativeAndNaNClamped(t *testing.T) {
	a := map[string]float64{"x": -5, "y": 1, "z": math.NaN()}
	b := map[string]float64{"x": 1, "y": 1}
	// After clamping: a = {y:1}, so min=1, max=1+1(x in b)=2.
	if s := Score(a, b); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("J = %g, want 0.5", s)
	}
}

func TestMinPairwise(t *testing.T) {
	ms := []map[string]float64{
		{"x": 1},
		{"x": 1},
		{"x": 2},
	}
	// Pairs: (1,1)->1, (1,2)->0.5, (1,2)->0.5.
	if s := MinPairwise(ms); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("MinPairwise = %g, want 0.5", s)
	}
	if s := MinPairwise(ms[:1]); s != 1 {
		t.Fatalf("MinPairwise of one = %g, want 1", s)
	}
}

// Properties: symmetry, range [0,1], identity.
func TestPropertyScore(t *testing.T) {
	gen := func(raw []uint16) map[string]float64 {
		m := make(map[string]float64)
		keys := []string{"a", "b", "c", "d", "e"}
		for i, v := range raw {
			if i >= len(keys) {
				break
			}
			m[keys[i]] = float64(v) / 100
		}
		return m
	}
	f := func(ra, rb []uint16) bool {
		a, b := gen(ra), gen(rb)
		s1, s2 := Score(a, b), Score(b, a)
		if math.Abs(s1-s2) > 1e-12 {
			return false
		}
		if s1 < 0 || s1 > 1 {
			return false
		}
		return Score(a, a) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: J decreases (weakly) as one value moves away from agreement.
func TestPropertyMonotoneDivergence(t *testing.T) {
	base := map[string]float64{"x": 10, "y": 5}
	prev := 1.0
	for d := 0.0; d <= 10; d += 0.5 {
		b := map[string]float64{"x": 10 + d, "y": 5}
		s := Score(base, b)
		if s > prev+1e-12 {
			t.Fatalf("score increased with divergence at d=%g: %g > %g", d, s, prev)
		}
		prev = s
	}
}

// TestScoreRepeatsBitwise pins Score's result to the bit across calls.
// The sums mix one huge value with many small ones, so any order
// dependence (map iteration is randomized per range) shows in the low
// bits: 1e16+1 rounds back to 1e16, while 1+…+1+1e16 does not.
func TestScoreRepeatsBitwise(t *testing.T) {
	a := map[string]float64{"big": 1e16}
	b := map[string]float64{"big": 1e16}
	for i := 0; i < 32; i++ {
		k := string(rune('a'+i%26)) + string(rune('0'+i/26))
		a[k] = 1
		b[k] = 3
	}
	b["only-b"] = 5
	want := math.Float64bits(Score(a, b))
	for rep := 0; rep < 200; rep++ {
		if got := math.Float64bits(Score(a, b)); got != want {
			t.Fatalf("repeat %d: Score bits %x, first call %x", rep, got, want)
		}
	}
}

// TestMergedSumsMatchSortedUnion checks the key merge behind Score and
// MinPairwise against the sum it stands for: one pass over the sorted
// union of the keys.  The mappings overlap partly, hold keys only one
// side has, and mix magnitudes so that a different order would change
// the low bits.
func TestMergedSumsMatchSortedUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ms := make([]map[string]float64, 5)
	for i := range ms {
		ms[i] = map[string]float64{}
		for k := 0; k < 40; k++ {
			if rng.Intn(3) > 0 {
				ms[i][fmt.Sprintf("k%02d", k)] = math.Pow(10, float64(rng.Intn(17))) * rng.Float64()
			}
		}
	}
	ms[2]["neg"] = -1
	ref := func(a, b map[string]float64) float64 {
		var keys []string
		for k := range a {
			keys = append(keys, k)
		}
		for k := range b {
			if _, ok := a[k]; !ok {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		var num, den float64
		for _, k := range keys {
			av, bv := clamp(a[k]), clamp(b[k])
			num += math.Min(av, bv)
			den += math.Max(av, bv)
		}
		return num / den
	}
	min := math.Inf(1)
	for i := range ms {
		for j := range ms {
			got, want := Score(ms[i], ms[j]), ref(ms[i], ms[j])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Score(m%d, m%d) = %v, sorted-union sum %v", i, j, got, want)
			}
			if i < j {
				min = math.Min(min, got)
			}
		}
	}
	if got := MinPairwise(ms); math.Float64bits(got) != math.Float64bits(min) {
		t.Fatalf("MinPairwise = %v, minimum pairwise Score %v", got, min)
	}
}
