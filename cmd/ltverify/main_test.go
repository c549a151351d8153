package main

import (
	"fmt"
	"math"
	"testing"
)

// TestFragmentShareRepeatsBitwise pins the claim table's group shares to
// the bit across calls.  One huge share among many small ones makes any
// order dependence (map iteration is randomized per range) show in the
// low bits.
func TestFragmentShareRepeatsBitwise(t *testing.T) {
	pcts := map[string]float64{"main/solve/dot": 1e16}
	for i := 0; i < 32; i++ {
		pcts[fmt.Sprintf("main/assemble/waxpby%02d", i)] = 1
		pcts[fmt.Sprintf("main/other%02d", i)] = 7
	}
	want := math.Float64bits(fragmentShare(pcts, "waxpby", "dot"))
	for rep := 0; rep < 200; rep++ {
		if got := math.Float64bits(fragmentShare(pcts, "waxpby", "dot")); got != want {
			t.Fatalf("repeat %d: share bits %x, first call %x", rep, got, want)
		}
	}
	if got := fragmentShare(pcts, "nothing"); got != 0 {
		t.Fatalf("share of an absent fragment = %g", got)
	}
}
