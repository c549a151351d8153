// Package jaccard implements the generalized Jaccard score the paper uses
// to compare analysis results across timer methods (§V-B): for two
// non-negative functions A, B over a discrete set,
//
//	J(A,B) = Σ_x min(A(x), B(x)) / Σ_x max(A(x), B(x)),
//
// following Costa's generalization of the Jaccard index to multisets.
// The score is 1 for identical mappings, 0 for disjoint supports.
package jaccard

import (
	"math"
	"slices"
)

// Score computes the generalized Jaccard score of two mappings.  Missing
// keys count as zero.  Negative values are clamped to zero (severities
// are non-negative by construction; tiny negatives can appear from
// floating-point cancellation).
//
// The sums run over the keys in sorted order: floating-point addition
// is not associative, so summing in map order would make the low bits
// of the score differ from call to call.
func Score(a, b map[string]float64) float64 {
	return scoreSorted(a, sortedKeys(a), b, sortedKeys(b))
}

// sortedKeys returns m's keys in increasing order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// scoreSorted is Score given each mapping's sorted keys.  It merges the
// two key lists, so the sums run over the union of the keys in sorted
// order.
func scoreSorted(a map[string]float64, ak []string, b map[string]float64, bk []string) float64 {
	var num, den float64
	for len(ak) > 0 || len(bk) > 0 {
		var av, bv float64
		switch {
		case len(bk) == 0 || len(ak) > 0 && ak[0] < bk[0]:
			av = a[ak[0]]
			ak = ak[1:]
		case len(ak) == 0 || bk[0] < ak[0]:
			bv = b[bk[0]]
			bk = bk[1:]
		default:
			av, bv = a[ak[0]], b[bk[0]]
			ak, bk = ak[1:], bk[1:]
		}
		av, bv = clamp(av), clamp(bv)
		num += math.Min(av, bv)
		den += math.Max(av, bv)
	}
	if den == 0 {
		return 1 // two all-zero mappings are identical
	}
	return num / den
}

func clamp(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

// MinPairwise returns the minimum Score over all unordered pairs of the
// given mappings — the paper's "minimal Jaccard score between any pair of
// the five repetitions", its measure of run-to-run variability.
func MinPairwise(ms []map[string]float64) float64 {
	if len(ms) < 2 {
		return 1
	}
	keys := make([][]string, len(ms))
	for i, m := range ms {
		keys[i] = sortedKeys(m)
	}
	min := math.Inf(1)
	for i := 0; i < len(ms); i++ {
		for j := i + 1; j < len(ms); j++ {
			if s := scoreSorted(ms[i], keys[i], ms[j], keys[j]); s < min {
				min = s
			}
		}
	}
	return min
}
