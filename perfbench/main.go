// Command perfbench is the repository's end-to-end benchmark.  It runs
// one workload of the paper's study pipeline in a closed loop with one
// client (a pass starts when the previous one has finished), checks
// every pass's outputs, and prints one JSON result as its last line.
//
//	perfbench --workload study-lulesh --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics: set-up time, and per pass
// the wall time, event throughput, process CPU and heap allocation,
// plus the process's peak RSS.  --trace 1 alternates untraced passes
// with traced ones, which time each call into a layer's public
// functions from outside the program; it reports the per-layer
// metrics.  Every study runs sequentially (one pool worker, the
// sequential kernel) with GOMAXPROCS left at its default.  --workload
// all runs the three workloads in turn in one process; max_rss_mb is
// then the peak so far.
//
// perfbench/run.sh builds the command from the checkout's sources and
// runs it from the checkout root; scratch files go to .bench_build/.
// After a deliberate change of simulated results, re-pin each workload's
// default-seed outputs with
//
//	bash perfbench/run.sh --workload all --seconds 0.001 -pin perfbench/reference.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose outputs are pinned in reference.json.
const defaultSeed = 1

// setupReps is how many times a run sets its workload up; set-up time is
// the median.
const setupReps = 3

func main() {
	name := flag.String("workload", "", "workload to run: study-lulesh, verify-tealeaf, postmortem, or all of them in turn")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "seconds of passes to measure")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	pin := flag.String("pin", "", "write the workload's outputs at --seed to this reference file")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traceFlag, *pin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, traceFlag int, pin string) error {
	ws := workloads
	if name != "all" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", traceFlag)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	refs, err := loadReferences(referenceJSON)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, w := range ws {
		ref := refs[w.name]
		if ref != nil && ref.Seed != seed || pin != "" {
			ref = nil
		}
		if err := runOne(w, seed, seconds, traceFlag == 1, dir, ref, pin); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

// runOne runs one workload and prints its report, ending with the JSON
// result line, or pins its outputs when pin names a reference file.
func runOne(w workload, seed int64, seconds float64, traced bool, dir string, ref *reference, pin string) error {
	hf, _ := json.Marshal(host(w.name, seed))
	fmt.Printf("host %s\n", hf)
	r, err := run(w, seed, seconds, traced, dir, ref)
	if err != nil {
		return err
	}
	if pin != "" {
		return writeReference(pin, w.name, &reference{
			Seed: seed, Digest: r.first.digest, Counts: r.first.counts, RenderSHA: r.first.renderSHA,
		})
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	if traced {
		if err := writeSpans(w.name, seed, r.spans); err != nil {
			return err
		}
	}
	res, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runReport is everything one run measured.
type runReport struct {
	result result
	first  *passOut // the first untraced pass
	lines  []string // human-readable report
	spans  []span
}

// run sets the workload up setupReps times, then repeats passes for
// the given seconds of measured time (at least one), checking each.
func run(w workload, seed int64, seconds float64, traced bool, dir string, ref *reference) (*runReport, error) {
	var p *prepared
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		if p != nil && p.cache != nil {
			if err := os.RemoveAll(p.cache.Dir()); err != nil {
				return nil, err
			}
		}
		t0 := now()
		np, simulated, err := setup(w, seed, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, now().Sub(t0).Seconds())
		p = np
		if simulated != nil && i == setupReps-1 {
			// The studies as simulated are what the cached runs must
			// reproduce on seeds without a pinned reference.
			d := &passOut{bad: make(map[string]bool), digest: make(digest)}
			for si, st := range simulated {
				if err := p.studyDigest(d, si, st, aggregateStudy(nil, st)); err != nil {
					return nil, err
				}
			}
			p.want = d.digest
		}
	}

	rep := &runReport{}
	chk := &checker{ref: ref, want: p.want}
	// A traced run alternates untraced and traced passes, so that host
	// load drifting during the run weighs on both alike.
	tracers := []*tracer{nil}
	if traced {
		tracers = append(tracers, newTracer())
	}
	outs, err := passes(p, tracers, seconds, chk)
	if err != nil {
		return nil, err
	}
	untraced := outs[0]
	rep.first = untraced[0]
	if traced {
		rep.spans = tracers[1].spans
	}

	r := &rep.result
	r.Attempted, r.Failed = chk.attempted, chk.failed
	r.Correct = r.Failed == 0
	rep.lines = append(rep.lines,
		fmt.Sprintf("check: reference %s; %d items attempted, %d failed, failed_frac %.4f",
			chk.source(), r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted)),
		fmt.Sprintf("render: %d of %d rendered reports match the reference bytes", chk.renderMatches, chk.renders))
	for _, k := range chk.firstMismatches {
		rep.lines = append(rep.lines, "  mismatch: "+k)
	}
	if !traced {
		r.Metrics = endToEnd(untraced, setupS)
		rep.lines = append(rep.lines, timingLines(untraced, setupS)...)
	} else {
		r.Metrics = perLayer(tracers[1], untraced, outs[1], chk)
		wall := func(o *passOut) float64 { return o.wall.Seconds() }
		rep.lines = append(rep.lines, fmt.Sprintf("pass wall_s: untraced %.4f, traced %.4f",
			values(untraced, wall), values(outs[1], wall)))
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.lines = append(rep.lines, fmt.Sprintf("%-36s %14.6g %s", n, r.Metrics[n].Value, r.Metrics[n].Unit))
	}
	if !traced {
		// Carried by the result's attempted and failed counts rather than
		// as a metric, since it is 0 whenever the outputs are correct.
		rep.lines = append(rep.lines, fmt.Sprintf("%-36s %14.6g %s", "failed_frac",
			float64(r.Failed)/float64(r.Attempted), "ratio"))
	}
	return rep, nil
}

// passes repeats the workload's pass, cycling through tracers (nil
// runs a pass untraced) and checking each pass's outputs, until the
// measured pass time is as close to budget seconds as whole cycles
// allow (at least one cycle).  It returns the passes of each tracer.
func passes(p *prepared, tracers []*tracer, budget float64, chk *checker) ([][]*passOut, error) {
	outs := make([][]*passOut, len(tracers))
	var measured time.Duration
	for n := 0; n == 0 || measured.Seconds()*(1+0.5/float64(n)) < budget; n++ {
		for i, tr := range tracers {
			out, err := p.pass(tr)
			if err != nil {
				return nil, err
			}
			if err := chk.check(out); err != nil {
				return nil, err
			}
			outs[i] = append(outs[i], out)
			measured += out.wall
		}
	}
	return outs, nil
}

// checker compares every pass's outputs with the reference: the pinned
// one when the seed has one, otherwise the first pass (and, for a cached
// workload, the studies as simulated in set-up).
type checker struct {
	ref  *reference
	want digest // set-up digest of a cached workload

	first           *passOut
	attempted       int
	failed          int
	renders         int // passes that rendered a report
	renderMatches   int
	firstMismatches []string
}

func (c *checker) source() string {
	if c.ref != nil {
		return fmt.Sprintf("pinned (seed %d)", c.ref.Seed)
	}
	return "self-consistency"
}

// check accounts one pass.  Work counters that differ from the first
// pass's are an error: they must repeat exactly, or they cannot tell a
// speed-only change from a behaviour change.
func (c *checker) check(out *passOut) error {
	if c.first == nil {
		c.first = out
	} else if diff := countDiffs(c.first.counts, out.counts); len(diff) > 0 {
		return fmt.Errorf("work counters differ between passes of one run: %s", strings.Join(diff, ", "))
	}
	want, wantRender := c.first.digest, c.first.renderSHA
	var mism []string
	switch {
	case c.ref != nil:
		want, wantRender = c.ref.Digest, c.ref.RenderSHA
		for _, k := range countDiffs(c.ref.Counts, out.counts) {
			mism = append(mism, "*|"+k)
		}
	case c.want != nil:
		want = c.want
	}
	mism = append(mism, mismatches(want, out.digest)...)
	if len(c.firstMismatches) == 0 && len(mism) > 0 {
		c.firstMismatches = mism[:min(len(mism), 10)]
	}
	if out.renderSHA != "" {
		c.renders++
		if out.renderSHA == wantRender {
			c.renderMatches++
		}
	}
	c.attempted += len(out.items)
	c.failed += countFailed(out.items, out.bad, mism)
	return nil
}

func values(ds []*passOut, f func(*passOut) float64) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = f(d)
	}
	return xs
}

// endToEnd computes the untraced run's metrics: medians over passes.
func endToEnd(outs []*passOut, setupS []float64) map[string]metric {
	wall := median(values(outs, func(o *passOut) float64 { return o.wall.Seconds() }))
	return map[string]metric{
		"setup_s":      {median(setupS), "s"},
		"wall_s":       {wall, "s"},
		"events_per_s": {float64(outs[0].events) / wall, "1/s"},
		"cpu_s":        {median(values(outs, func(o *passOut) float64 { return o.cpu.Seconds() })), "s"},
		"alloc_mb":     {median(values(outs, func(o *passOut) float64 { return float64(o.alloc) / 1e6 })), "MB"},
		"max_rss_mb":   {float64(maxRSSBytes()) / 1e6, "MB"},
	}
}

// timingLines reports the pass-time distribution with its sample count.
func timingLines(outs []*passOut, setupS []float64) []string {
	walls := values(outs, func(o *passOut) float64 { return o.wall.Seconds() })
	line := fmt.Sprintf("wall_s: median %.4f over %d passes; set-up median %.4f over %d",
		median(walls), len(walls), median(setupS), len(setupS))
	if p, v, ok := highPercentile(walls); ok {
		line += fmt.Sprintf("; p%g %.4f", p, v)
	} else {
		line += "; too few passes for a tail percentile"
	}
	return []string{line, fmt.Sprintf("pass wall_s: %.4f", walls), fmt.Sprintf("events per pass: %d", outs[0].events)}
}

// perLayer computes the traced run's metrics: per layer, the median over
// traced passes of its self time, allocation and work counts.
func perLayer(tr *tracer, untraced, traced []*passOut, chk *checker) map[string]metric {
	per := make(map[string][]float64)
	units := make(map[string]string)
	for i, out := range traced {
		end := len(tr.spans)
		if i+1 < len(traced) {
			end = traced[i+1].spanFrom
		}
		self, alloc := layerTotals(tr.spans[:end], out.spanFrom)
		set := func(name, unit string, v float64) {
			per[name] = append(per[name], v)
			units[name] = unit
		}
		ratio := func(a, b float64) float64 {
			if b == 0 {
				return 0
			}
			return a / b
		}
		c := out.counts
		// Reference runs record no events; their simulation time still
		// counts, as the event count is what the pass delivers.
		run := self["experiment.run"]
		set("experiment.run.busy_s", "s", run.Seconds())
		set("experiment.run.ns_per_event", "ns", ratio(float64(run.Nanoseconds()), float64(out.events)))
		set("experiment.run.ns_per_completion", "ns", ratio(float64(run.Nanoseconds()), float64(c["vtime.completions"])))
		set("experiment.run.alloc_mb", "MB", float64(alloc["experiment.run"])/1e6)
		for name, v := range c {
			unit := "count"
			if name == "simmpi.message_bytes" {
				unit = "B"
			}
			set(name, unit, float64(v))
		}
		set("vtime.resettles_per_completion", "ratio", ratio(float64(c["vtime.resettles"]), float64(c["vtime.completions"])))
		sc := self["scalasca.analyze"]
		set("scalasca.busy_s", "s", sc.Seconds())
		set("scalasca.ns_per_event", "ns", ratio(float64(sc.Nanoseconds()), float64(out.analyzedEvents)))
		set("scalasca.alloc_mb", "MB", float64(alloc["scalasca.analyze"])/1e6)
		tc := self["tracecheck.verify"]
		set("tracecheck.busy_s", "s", tc.Seconds())
		set("tracecheck.ns_per_event", "ns", ratio(float64(tc.Nanoseconds()), float64(out.verifiedEvents)))
		set("tracecheck.alloc_mb", "MB", float64(alloc["tracecheck.verify"])/1e6)
		set("tracecheck.violations", "count", float64(out.violations))
		set("runcache.get_s", "s", self["runcache.get"].Seconds())
		set("runcache.put_s", "s", self["runcache.put"].Seconds())
		set("runcache.entry_mb", "MB", float64(out.entryBytes)/1e6)
		set("runcache.hit_ratio", "ratio", ratio(float64(out.hits), float64(out.gets)))
		set("cube.mean_s", "s", self["cube.mean"].Seconds())
		set("cube.mean_alloc_mb", "MB", float64(alloc["cube.mean"])/1e6)
		set("jaccard.score_s", "s", self["jaccard.score"].Seconds())
		set("experiment.render_s", "s", self["experiment.render"].Seconds())
	}
	m := make(map[string]metric)
	for name, xs := range per {
		m[name] = metric{median(xs), units[name]}
	}
	// Each traced pass ran right after an untraced one; the median of
	// the pairs' differences cancels host load that drifts over a run.
	diffs := make([]float64, len(traced))
	for i := range traced {
		diffs[i] = (traced[i].wall - untraced[i].wall).Seconds()
	}
	m["bench.trace_overhead_s"] = metric{median(diffs), "s"}
	matches := 0.0
	if chk.renders > 0 {
		matches = float64(chk.renderMatches) / float64(chk.renders)
	}
	m["experiment.render_sha_matches"] = metric{matches, "ratio"}
	return m
}

// writeSpans writes a traced run's spans, with each span's self time,
// to .bench_build/spans/.
func writeSpans(workload string, seed int64, spans []span) error {
	type out struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	self := selfTimes(spans)
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{s, self[i]}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), data, 0o644)
}
