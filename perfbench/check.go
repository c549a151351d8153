package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	_ "embed"
)

// digest holds a pass's checked outputs: simulated statistics, trace
// hashes and verification results, keyed "item|field".  An item is
// "<study>/<mode>/<rep>" for one repetition, "<study>/<mode>" for a
// statistic over all repetitions of a mode, and "*" for the whole pass.
// Values are float64 or string.
type digest map[string]any

// counts are the work counters of a pass: registry counters of the
// simulate layers and the trace events handled.  A change that only
// speeds the program up must leave them exactly unchanged.
type counts map[string]uint64

// reference is the pinned output of one workload at its default seed.
type reference struct {
	Seed      int64  `json:"seed"`
	Digest    digest `json:"digest"`
	Counts    counts `json:"counts"`
	RenderSHA string `json:"render_sha256,omitempty"`
}

//go:embed reference.json
var referenceJSON []byte

// loadReferences decodes the pinned references, keyed by workload.
func loadReferences(data []byte) (map[string]*reference, error) {
	refs := make(map[string]*reference)
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("decoding pinned references: %w", err)
	}
	return refs, nil
}

// writeReference stores ref as the pinned reference of a workload in the
// JSON file at path, keeping the other workloads' entries.
func writeReference(path, workload string, ref *reference) error {
	refs := make(map[string]*reference)
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if refs, err = loadReferences(data); err != nil {
			return err
		}
	}
	refs[workload] = ref
	data, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return fmt.Errorf("encoding reference: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// num stores a float statistic; JSON has no NaN or infinities, so those
// are kept as their string form.
func num(x float64) any {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Sprint(x)
	}
	return x
}

// sameFloat reports whether two simulated statistics agree to 1e-9
// relative.  -0 equals +0: the program sums some floats in map order,
// so a zero may come out with either sign.
func sameFloat(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func sameValue(a, b any) bool {
	fa, okA := a.(float64)
	fb, okB := b.(float64)
	if okA && okB {
		return sameFloat(fa, fb)
	}
	return a == b
}

// mismatches returns the sorted keys whose values differ between want
// and got, including keys present on one side only.
func mismatches(want, got digest) []string {
	var bad []string
	for k, w := range want {
		if g, ok := got[k]; !ok || !sameValue(w, g) {
			bad = append(bad, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}

// countDiffs returns the sorted names of counters that differ.
func countDiffs(want, got counts) []string {
	var bad []string
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			bad = append(bad, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}

// covers reports whether the digest item scope covers item: "*" covers
// every item, "S/m" every repetition "S/m/r", and an item itself.
func covers(scope, item string) bool {
	return scope == "*" || scope == item || strings.HasPrefix(item, scope+"/")
}

// countFailed returns how many of a pass's items failed: those an
// intrinsic check marked bad, plus those in the scope of a mismatched
// digest key.
func countFailed(items []string, bad map[string]bool, mismatched []string) int {
	n := 0
	for _, it := range items {
		failed := bad[it]
		for _, k := range mismatched {
			if failed {
				break
			}
			scope, _, _ := strings.Cut(k, "|")
			failed = covers(scope, it)
		}
		if failed {
			n++
		}
	}
	return n
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
