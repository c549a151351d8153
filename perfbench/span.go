package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program around the layer's public function.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Item   int    `json:"item"`   // item handled, -1 when the span covers several
	Alloc  uint64 `json:"alloc_bytes"`
}

// tracer records spans in memory; they are written out when the
// benchmark ends.  A nil *tracer runs the wrapped calls untimed, so the
// traced and untraced passes share one code path.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of spans not yet ended
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		origin: now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// heapAllocated returns the bytes allocated on the heap since the
// process started.
func heapAllocated(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// do runs fn inside a span named name for the given item.
func (tr *tracer) do(name string, item int, fn func()) {
	if tr == nil {
		fn()
		return
	}
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	i := len(tr.spans)
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Item: item})
	tr.open = append(tr.open, i)
	a0 := heapAllocated(tr.sample)
	tr.spans[i].Start = int64(now().Sub(tr.origin))
	fn()
	tr.spans[i].End = int64(now().Sub(tr.origin))
	tr.spans[i].Alloc = heapAllocated(tr.sample) - a0
	tr.open = tr.open[:len(tr.open)-1]
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.  Children may overlap one another (calls on
// other goroutines), so their intervals are merged before subtracting.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTotals sums self time and allocated bytes per span name over
// spans[from:].
func layerTotals(spans []span, from int) (self map[string]time.Duration, alloc map[string]uint64) {
	st := selfTimes(spans)
	self = make(map[string]time.Duration)
	alloc = make(map[string]uint64)
	for i := from; i < len(spans); i++ {
		self[spans[i].Name] += time.Duration(st[i])
		alloc[spans[i].Name] += spans[i].Alloc
	}
	return self, alloc
}
