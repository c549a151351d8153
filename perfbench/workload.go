package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/experiment"
	"repro/internal/jaccard"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/scalasca"
	"repro/internal/trace"
	"repro/internal/tracecheck"
)

// workload is one fixed unit of work a pass repeats.
type workload struct {
	name  string
	specs []string // studies the pass handles, quick-sized
	reps  int      // study repetitions
	// verify runs every trace through tracecheck, as ltverify does.
	verify bool
	// cached moves simulation into set-up: set-up simulates the studies
	// into a run cache and each pass replays them from it.
	cached bool
	render func(w io.Writer, st []*experiment.Study)
}

// The three workloads stress different layers.  study-lulesh is the
// paper report's unit of work and is dominated by the simulate layers;
// verify-tealeaf runs them in other shapes (wide OpenMP barriers,
// 128-rank collectives) and adds trace verification, the heaviest
// allocator; postmortem bypasses simulation so that trace decode/encode,
// Scalasca replay, aggregation and rendering are not drowned by it.
var workloads = []workload{
	{
		name: "study-lulesh", specs: []string{"LULESH-1"}, reps: 2,
		render: func(w io.Writer, st []*experiment.Study) {
			experiment.Fig8(w, st[0])
			experiment.Fig9(w, st[0])
		},
	},
	{name: "verify-tealeaf", specs: []string{"TeaLeaf-2", "TeaLeaf-4"}, reps: 1, verify: true},
	{
		name: "postmortem", specs: []string{"MiniFE-1", "MiniFE-2", "LULESH-1"}, reps: 1, cached: true,
		render: func(w io.Writer, st []*experiment.Study) {
			experiment.Fig5(w, st[0], st[1])
			experiment.Fig6(w, st[0], st[1])
			experiment.Fig9(w, st[2])
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// item names one repetition handled by a pass.
type item struct {
	study int
	mode  core.Mode // "" for an uninstrumented reference repetition
	rep   int
}

func modeName(m core.Mode) string {
	if m == "" {
		return "ref"
	}
	return string(m)
}

// items enumerates a workload's repetitions in RunStudy's grid order:
// reference repetitions, then every mode's.
func (p *prepared) items() []item {
	var its []item
	for si := range p.specs {
		for rep := 0; rep < p.w.reps; rep++ {
			its = append(its, item{si, "", rep})
		}
		for _, m := range core.AllModes() {
			for rep := 0; rep < p.w.reps; rep++ {
				its = append(its, item{si, m, rep})
			}
		}
	}
	return its
}

func (p *prepared) itemID(it item) string {
	return fmt.Sprintf("%s/%s/%d", p.specs[it.study].Name, modeName(it.mode), it.rep)
}

// prepared is a workload after set-up.
type prepared struct {
	w     workload
	seed  int64
	specs []experiment.Spec
	dir   string // scratch directory, inside the checkout

	// Cached workloads only: the run cache set-up filled, what it holds,
	// and the digest of the studies as simulated.
	cache  *runcache.Cache
	stored []storedRun
	want   digest
}

type storedRun struct {
	it       item
	key      runcache.Key
	analyzed bool
}

func (p *prepared) studyOptions(reg *obs.Registry) experiment.StudyOptions {
	return experiment.StudyOptions{
		Reps: p.w.reps, BaseSeed: p.seed, Workers: 1, KernelWorkers: 1,
		VerifyTraces: p.w.verify, Metrics: reg,
	}
}

// setup resolves the workload's specs and gets it ready to pass.  For a
// simulating workload that is one uninstrumented warm-up run per spec,
// so heap growth and first-touch costs land here, not in the first
// pass.  For a cached workload it is simulating every study into a
// fresh run cache under dir.
func setup(w workload, seed int64, dir string) (*prepared, []*experiment.Study, error) {
	p := &prepared{w: w, seed: seed, dir: dir}
	for _, name := range w.specs {
		spec, err := experiment.SpecByName(name, experiment.Options{Quick: true})
		if err != nil {
			return nil, nil, err
		}
		p.specs = append(p.specs, spec)
	}
	if !w.cached {
		for _, spec := range p.specs {
			if _, err := experiment.RunWithOptions(spec, experiment.RunOptions{Seed: seed, Noise: noise.Cluster()}); err != nil {
				return nil, nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return p, nil, nil
	}
	cacheDir, err := os.MkdirTemp(dir, "cache-")
	if err != nil {
		return nil, nil, err
	}
	if p.cache, err = runcache.Open(cacheDir); err != nil {
		return nil, nil, err
	}
	studies := make([]*experiment.Study, len(p.specs))
	for si, spec := range p.specs {
		st, err := experiment.RunStudy(spec, p.studyOptions(nil))
		if err != nil {
			return nil, nil, err
		}
		if len(st.Dropped) > 0 {
			return nil, nil, fmt.Errorf("%s: %d repetitions dropped in set-up", spec.Name, len(st.Dropped))
		}
		studies[si] = st
	}
	for _, it := range p.items() {
		res := runOf(studies[it.study], it)
		key := runcache.Key{
			Spec: fmt.Sprintf("%d:%s", it.study, p.specs[it.study].Name), Mode: string(it.mode),
			Seed: seed + int64(it.rep), Analyze: res.Profile != nil, Version: "perfbench",
		}
		e := &runcache.Entry{
			Mode: string(res.Mode), Wall: res.Wall, Phases: res.Phases,
			Checks: res.Checks, FoM: res.FoM, Trace: res.Trace, Profile: res.Profile,
		}
		if err := p.cache.Put(key, e); err != nil {
			return nil, nil, err
		}
		p.stored = append(p.stored, storedRun{it: it, key: key, analyzed: res.Profile != nil})
	}
	return p, studies, nil
}

// runOf returns one repetition of a complete study.
func runOf(st *experiment.Study, it item) *experiment.RunResult {
	if it.mode == "" {
		return st.Refs[it.rep]
	}
	return st.Runs[it.mode][it.rep]
}

// passOut is what one pass did and produced.
type passOut struct {
	wall, cpu time.Duration
	alloc     uint64 // heap bytes allocated
	items     []string
	bad       map[string]bool // items failed by an intrinsic check
	events    uint64          // trace events of the instrumented runs handled
	digest    digest
	counts    counts
	renderSHA string

	// Per-layer inputs.
	analyzedEvents, verifiedEvents uint64
	violations                     int
	gets, hits                     int
	entryBytes                     int64
	spanFrom                       int
}

// aggregate is what a pass reduces a study to: the mean profile of each
// mode and each mode's Jaccard similarity to tsc.
type aggregate struct {
	mean map[core.Mode]*cube.Profile
	jac  map[core.Mode]float64
}

// pass runs the workload's fixed work once.  Only the work a user waits
// for is timed; checking the outputs comes after.
func (p *prepared) pass(tr *tracer) (*passOut, error) {
	out := &passOut{bad: make(map[string]bool)}
	its := p.items()
	for _, it := range its {
		out.items = append(out.items, p.itemID(it))
	}
	reg := obs.NewRegistry()
	var outDir string
	if p.w.cached {
		var err error
		if outDir, err = os.MkdirTemp(p.dir, "pass-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(outDir)
	}
	if tr != nil {
		out.spanFrom = len(tr.spans)
	}
	var (
		studies []*experiment.Study
		aggs    []aggregate
		render  bytes.Buffer
		err     error
	)
	runtime.GC()
	m0 := sampleProcess()
	tr.do("pass", -1, func() {
		switch {
		case p.w.cached:
			studies, err = p.replay(tr, out, outDir)
		case tr != nil:
			studies, err = p.simulateTraced(tr, reg, out)
		default:
			studies, err = p.simulate(reg, out)
		}
		if err != nil {
			return
		}
		for _, st := range studies {
			aggs = append(aggs, aggregateStudy(tr, st))
		}
		if p.w.render != nil {
			tr.do("experiment.render", -1, func() { p.w.render(&render, studies) })
		}
	})
	m1 := sampleProcess()
	if err != nil {
		return nil, err
	}
	out.wall, out.cpu, out.alloc = m1.wall.Sub(m0.wall), m1.cpu-m0.cpu, m1.alloc-m0.alloc

	out.digest = make(digest)
	for si, st := range studies {
		if err := p.studyDigest(out, si, st, aggs[si]); err != nil {
			return nil, err
		}
	}
	out.counts = registryCounts(reg)
	out.counts["trace.events"] = out.events
	if p.w.render != nil {
		out.renderSHA = sha(render.Bytes())
	}
	if p.w.cached {
		out.entryBytes, err = dirBytes(outDir)
	}
	return out, err
}

// simulate runs the studies as ltreport and ltverify do.
func (p *prepared) simulate(reg *obs.Registry, out *passOut) ([]*experiment.Study, error) {
	studies := make([]*experiment.Study, len(p.specs))
	for si, spec := range p.specs {
		st, err := experiment.RunStudy(spec, p.studyOptions(reg))
		if err != nil {
			return nil, err
		}
		for _, d := range st.Dropped {
			out.bad[p.itemID(item{si, d.Mode, d.Rep})] = true
		}
		studies[si] = st
	}
	return studies, nil
}

// simulateTraced does the work of simulate through the public calls
// RunStudy makes, each inside a span: the same job grid, seeds, analyze
// policy and verification order, sequentially.
func (p *prepared) simulateTraced(tr *tracer, reg *obs.Registry, out *passOut) ([]*experiment.Study, error) {
	np := noise.Cluster()
	its := p.items()
	studies := make([]*experiment.Study, len(p.specs))
	for si, spec := range p.specs {
		opts := p.studyOptions(reg)
		opts.Noise, opts.Modes = &np, core.AllModes()
		st := &experiment.Study{Spec: spec, Opts: opts, Runs: make(map[core.Mode][]*experiment.RunResult)}
		for idx, it := range its {
			if it.study != si {
				continue
			}
			o := experiment.RunOptions{Seed: p.seed + int64(it.rep), Noise: np, Metrics: reg}
			if it.mode != "" {
				cfg := measure.DefaultConfig(it.mode)
				o.Cfg = &cfg
			}
			var res *experiment.RunResult
			var err error
			tr.do("experiment.run", idx, func() { res, err = experiment.RunWithOptions(spec, o) })
			if err == nil && it.mode != "" && (it.rep == 0 || !it.mode.Deterministic()) {
				out.analyzedEvents += numEvents(res.Trace)
				tr.do("scalasca.analyze", idx, func() { res.Profile, err = scalasca.Analyze(res.Trace) })
			}
			if err != nil {
				out.bad[p.itemID(it)] = true
				continue
			}
			if it.mode == "" {
				st.Refs = append(st.Refs, res)
			} else {
				st.Runs[it.mode] = append(st.Runs[it.mode], res)
			}
		}
		if p.w.verify {
			for _, m := range core.AllModes() {
				for rep, res := range st.Runs[m] {
					idx := indexOf(its, item{si, m, rep})
					var rpt *tracecheck.Report
					tr.do("tracecheck.verify", idx, func() { rpt = tracecheck.Verify(res.Trace, tracecheck.Options{}) })
					out.verifiedEvents += numEvents(res.Trace)
					st.TraceChecks = append(st.TraceChecks, experiment.TraceCheckResult{Mode: m, Rep: rep, Report: rpt})
				}
			}
		}
		studies[si] = st
	}
	return studies, nil
}

// replay rebuilds the cached studies: every stored run is read back,
// written to a fresh cache in outDir, and its trace re-analyzed where
// the study had analyzed it.
func (p *prepared) replay(tr *tracer, out *passOut, outDir string) ([]*experiment.Study, error) {
	dst, err := runcache.Open(outDir)
	if err != nil {
		return nil, err
	}
	studies := make([]*experiment.Study, len(p.specs))
	for si, spec := range p.specs {
		studies[si] = &experiment.Study{Spec: spec, Runs: make(map[core.Mode][]*experiment.RunResult)}
	}
	for idx, sr := range p.stored {
		id := p.itemID(sr.it)
		var e *runcache.Entry
		var ok bool
		out.gets++
		tr.do("runcache.get", idx, func() { e, ok = p.cache.Get(sr.key) })
		if !ok {
			out.bad[id] = true
			continue
		}
		out.hits++
		tr.do("runcache.put", idx, func() { err = dst.Put(sr.key, e) })
		if err != nil {
			out.bad[id] = true
		}
		res := &experiment.RunResult{
			Mode: core.Mode(e.Mode), Wall: e.Wall, Phases: e.Phases,
			Checks: e.Checks, FoM: e.FoM, Trace: e.Trace,
		}
		if sr.analyzed {
			out.analyzedEvents += numEvents(e.Trace)
			tr.do("scalasca.analyze", idx, func() { res.Profile, err = scalasca.Analyze(e.Trace) })
			if err != nil {
				out.bad[id] = true
			}
		}
		st := studies[sr.it.study]
		if sr.it.mode == "" {
			st.Refs = append(st.Refs, res)
		} else {
			st.Runs[sr.it.mode] = append(st.Runs[sr.it.mode], res)
		}
	}
	return studies, nil
}

func indexOf(its []item, it item) int {
	for i, x := range its {
		if x == it {
			return i
		}
	}
	return -1
}

func numEvents(t *trace.Trace) uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for _, l := range t.Locs {
		n += uint64(len(l.Events))
	}
	return n
}

// aggregateStudy computes each mode's mean profile and its Jaccard
// similarity to tsc, as JaccardVsTsc defines it.
func aggregateStudy(tr *tracer, st *experiment.Study) aggregate {
	a := aggregate{mean: make(map[core.Mode]*cube.Profile), jac: make(map[core.Mode]float64)}
	for _, m := range core.AllModes() {
		tr.do("cube.mean", -1, func() { a.mean[m] = st.MeanProfile(m) })
	}
	tsc := a.mean[core.ModeTSC]
	for _, m := range core.LogicalModes() {
		if other := a.mean[m]; tsc != nil && other != nil {
			tr.do("jaccard.score", -1, func() { a.jac[m] = jaccard.Score(other.MCMap(), tsc.MCMap()) })
		}
	}
	return a
}

// studyDigest records one study's checked outputs and runs the checks
// that need no reference: no dropped repetition, no trace violation, and
// deterministic-mode traces identical across repetitions.
func (p *prepared) studyDigest(out *passOut, si int, st *experiment.Study, a aggregate) error {
	name := st.Spec.Name
	d := out.digest
	for rep, r := range st.Refs {
		d[fmt.Sprintf("%s/ref/%d|wall", name, rep)] = num(r.Wall)
	}
	d[name+"/ref|wall"] = num(st.RefWall())
	for _, m := range core.AllModes() {
		var first string
		for rep, r := range st.Runs[m] {
			id := p.itemID(item{si, m, rep})
			d[id+"|wall"] = num(r.Wall)
			n := numEvents(r.Trace)
			out.events += n
			d[id+"|events"] = num(float64(n))
			if !m.Deterministic() {
				continue
			}
			h := sha256.New()
			if err := trace.WriteChunked(h, r.Trace); err != nil {
				return fmt.Errorf("%s: hashing trace: %w", id, err)
			}
			s := hex.EncodeToString(h.Sum(nil))
			d[id+"|trace_sha256"] = s
			if rep == 0 {
				first = s
			} else if s != first {
				out.bad[id] = true
			}
		}
		scope := name + "/" + string(m)
		d[scope+"|mode_wall"] = num(st.ModeWall(m))
		d[scope+"|overhead_pct"] = num(st.Overhead(m))
		if mp := a.mean[m]; mp != nil {
			for _, mt := range mp.Metrics {
				d[scope+"|total."+mt.Name] = num(mp.TotalByName(mt.Name))
			}
		}
		if j, ok := a.jac[m]; ok {
			d[scope+"|jaccard_vs_tsc"] = num(j)
		}
	}
	for _, tc := range st.TraceChecks {
		id := p.itemID(item{si, tc.Mode, tc.Rep})
		v := tc.Report.NumViolations()
		out.violations += v
		d[id+"|violations"] = num(float64(v))
		if v > 0 {
			out.bad[id] = true
		}
	}
	if p.w.verify {
		d[name+"|trace_checks"] = num(float64(len(st.TraceChecks)))
	}
	return nil
}

// registryCounts reads the simulate layers' work counters.
func registryCounts(reg *obs.Registry) counts {
	c := make(counts)
	snap := reg.Snapshot()
	names := map[string]string{
		"vtime_steps": "vtime.steps", "vtime_completions": "vtime.completions",
		"vtime_resettles": "vtime.resettles", "vtime_dirty_flushes": "vtime.dirty_flushes",
		"simmpi_messages": "simmpi.messages", "simmpi_message_bytes": "simmpi.message_bytes",
		"simmpi_coll_rounds": "simmpi.coll_rounds", "simmpi_rendezvous": "simmpi.rendezvous",
		"simmpi_piggyback_syncs": "simmpi.piggyback_syncs",
	}
	for _, n := range names {
		c[n] = 0
	}
	for _, cs := range snap.Counters {
		if n, ok := names[cs.Name]; ok {
			c[n] = cs.Value
		}
	}
	c["vtime.heap_max"] = 0
	for _, g := range snap.Gauges {
		if g.Name == "vtime_heap_size" {
			c["vtime.heap_max"] = uint64(g.Max)
		}
	}
	return c
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		info, err := de.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
