package vtime_test

// The concurrency battery: the study pool (-j) runs many independent
// kernels in one process at once, so every paper app and propagation
// pattern, in every timer mode, must produce byte-identical traces and
// analysis profiles whether its kernel ran alone or side by side with
// others — and, where a committed golden checksum exists, match that
// golden grid.  Any state shared between kernels (a package-level
// cache, a global random stream, an intern table) shows up here as
// divergence, or under -race as a report.  The battery lives in
// vtime's external test package so the kernel's own CI (including the
// -race run) exercises the full experiment pipeline.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/vtime"
	"repro/internal/work"
)

// concurrency is how many copies of a job run side by side: one per
// CPU of the CI runner, the -j 2 the paper studies use.
const concurrency = 2

// diffApps is the full matrix: five paper configurations (covering
// MPI-only, hybrid, one-per-domain and packed placements) and the five
// propagation patterns (ring, torus, pipeline and star).
var diffApps = []string{
	"MiniFE-1", "MiniFE-2", "LULESH-1", "TeaLeaf-1", "TeaLeaf-3",
	"Ring-16", "RingSlack-16", "Torus-16", "Pipeline-8", "MasterWorker-8",
}

// diffAppsShort keeps one app per placement/pattern family so the
// -short and -race runs still cross every regime: a one-per-domain
// paper app, a hybrid packed app, a 16-rank ring and the star farm
// whose master talks to everyone.
var diffAppsShort = []string{"MiniFE-1", "TeaLeaf-3", "Ring-16", "MasterWorker-8"}

// diffOptions is the golden protocol for one mode: seed 1, cluster
// noise, analysis on.  mode "" runs uninstrumented.
func diffOptions(mode core.Mode, plan *faults.Plan) experiment.RunOptions {
	o := experiment.RunOptions{Seed: 1, Noise: noise.Cluster(), Faults: plan}
	if mode != "" {
		cfg := measure.DefaultConfig(mode)
		o.Cfg = &cfg
		o.Analyze = true
	}
	return o
}

// runSolo executes one copy of a job on the calling goroutine: the
// reference the concurrent copies must reproduce.
func runSolo(t *testing.T, spec experiment.Spec, o experiment.RunOptions) *experiment.RunResult {
	t.Helper()
	res, err := experiment.RunWithOptions(spec, o)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return res
}

// runConcurrently executes n copies of one job at once, each on its own
// goroutine (and so its own kernel), as the study pool does.
func runConcurrently[T any](t *testing.T, n int, run func() (T, error)) []T {
	t.Helper()
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = run()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// diffSums fingerprints a run's serialised trace and profile.
func diffSums(t *testing.T, res *experiment.RunResult) (traceSum, profileSum string) {
	t.Helper()
	if res.Trace != nil {
		h := sha256.New()
		if err := res.Trace.Write(h); err != nil {
			t.Fatalf("serialising trace: %v", err)
		}
		traceSum = hex.EncodeToString(h.Sum(nil))
	}
	if res.Profile != nil {
		h := sha256.New()
		if err := res.Profile.Write(h); err != nil {
			t.Fatalf("serialising profile: %v", err)
		}
		profileSum = hex.EncodeToString(h.Sum(nil))
	}
	return traceSum, profileSum
}

// compareRuns demands two runs of the same job are indistinguishable:
// scalar results, per-rank checks, phase sums, applied-fault logs and
// the serialised trace/profile bytes.
func compareRuns(t *testing.T, label string, solo, conc *experiment.RunResult) {
	t.Helper()
	if solo.Wall != conc.Wall {
		t.Errorf("%s: wall time diverged: solo %v, concurrent %v", label, solo.Wall, conc.Wall)
	}
	if !reflect.DeepEqual(solo.Checks, conc.Checks) {
		t.Errorf("%s: per-rank checks diverged:\n  solo %v\n  conc %v", label, solo.Checks, conc.Checks)
	}
	if solo.FoM != conc.FoM {
		t.Errorf("%s: figure of merit diverged: solo %v, concurrent %v", label, solo.FoM, conc.FoM)
	}
	if !reflect.DeepEqual(solo.Phases, conc.Phases) {
		t.Errorf("%s: phase sums diverged:\n  solo %v\n  conc %v", label, solo.Phases, conc.Phases)
	}
	if !reflect.DeepEqual(solo.Applied, conc.Applied) {
		t.Errorf("%s: applied-fault logs diverged:\n  solo %v\n  conc %v", label, solo.Applied, conc.Applied)
	}
	st, sp := diffSums(t, solo)
	ct, cp := diffSums(t, conc)
	if st != ct {
		t.Errorf("%s: trace bytes diverged from the solo run\n  solo %s\n  conc %s", label, st, ct)
	}
	if sp != cp {
		t.Errorf("%s: profile bytes diverged from the solo run\n  solo %s\n  conc %s", label, sp, cp)
	}
}

// goldenGrid loads the committed golden checksum grid from the
// experiment package's testdata, keyed "app/mode".
func goldenGrid(t *testing.T) map[string]struct{ Trace, Profile string } {
	t.Helper()
	raw, err := os.ReadFile("../experiment/testdata/golden_sha256.json")
	if err != nil {
		t.Fatalf("reading golden checksum grid: %v", err)
	}
	var want map[string]struct {
		Trace   string `json:"trace"`
		Profile string `json:"profile"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing golden checksum grid: %v", err)
	}
	out := make(map[string]struct{ Trace, Profile string }, len(want))
	for k, v := range want {
		out[k] = struct{ Trace, Profile string }{v.Trace, v.Profile}
	}
	return out
}

// TestConcurrentKernelsMatchSequential: for every app × mode, a job
// whose kernel runs alongside other kernels commits output
// byte-identical to the same job run alone, and the solo run matches
// the committed golden grid where one exists.  The app subtests run in
// parallel with each other too, so kernels of different apps overlap
// as well as copies of one job.
func TestConcurrentKernelsMatchSequential(t *testing.T) {
	apps := diffApps
	modes := append([]core.Mode{""}, core.AllModes()...)
	if testing.Short() || raceDetectorEnabled {
		apps = diffAppsShort
		modes = []core.Mode{"", core.ModeTSC, core.ModeHwctr}
	}
	golden := goldenGrid(t)
	for _, app := range apps {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			spec, err := experiment.SpecByName(app, experiment.Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range modes {
				o := diffOptions(mode, nil)
				solo := runSolo(t, spec, o)
				if mode != "" {
					if g, ok := golden[app+"/"+string(mode)]; ok {
						st, sp := diffSums(t, solo)
						if st != g.Trace || sp != g.Profile {
							t.Fatalf("%s/%s: solo run drifted from the committed golden grid", app, mode)
						}
					}
				}
				conc := runConcurrently(t, concurrency, func() (*experiment.RunResult, error) {
					return experiment.RunWithOptions(spec, o)
				})
				for _, c := range conc {
					compareRuns(t, app+"/"+string(mode), solo, c)
				}
			}
		})
	}
}

// stressPlan arms every fault kind at once on a 16-rank spec: one-off
// delays and stragglers perturb individual ranks' schedules, link and
// memory degradations collapse shared resource capacities from
// completion callbacks, and a counter glitch corrupts instrumentation
// on a rank that keeps running.
func stressPlan() *faults.Plan {
	return &faults.Plan{
		Seed: 7,
		Faults: []faults.Fault{
			{Kind: faults.OneOffDelay, Rank: 3, At: 1e-4, Delay: 5e-4},
			{Kind: faults.Straggler, Rank: 9, At: 2e-4, Duration: 3e-3, Factor: 1.5},
			{Kind: faults.LinkDegrade, Node: 0, At: 1.5e-4, Duration: 2e-3, Factor: 0.5},
			{Kind: faults.MemDegrade, Domain: 0, At: 2.5e-4, Duration: 1e-3, Factor: 0.25},
			{Kind: faults.CtrGlitch, Rank: 5, At: 3e-4, Factor: 0.1},
		},
	}
}

// TestConcurrentKernelsFaultStress repeats the battery with a full
// fault plan armed, instrumented and uninstrumented.  One *Plan value
// is shared by every concurrent job, as a study shares it across its
// pool, so an injector that wrote into the plan would race here.
func TestConcurrentKernelsFaultStress(t *testing.T) {
	spec, err := experiment.SpecByName("Ring-16", experiment.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := stressPlan()
	for _, mode := range []core.Mode{"", core.ModeLt1} {
		o := diffOptions(mode, plan)
		solo := runSolo(t, spec, o)
		if len(solo.Applied) == 0 {
			t.Fatalf("%s: fault plan armed but nothing applied", mode)
		}
		conc := runConcurrently(t, concurrency, func() (*experiment.RunResult, error) {
			return experiment.RunWithOptions(spec, o)
		})
		for _, c := range conc {
			compareRuns(t, spec.Name+"/"+string(mode)+"/faults", solo, c)
		}
	}
}

// TestConcurrentMachineContentionStress is the bench suite's
// MachineContention workload on the raw kernel with faults armed: 16
// streams hammer one NUMA domain's fluid-model resources while a
// one-off delay, a straggler window and a memory-bandwidth collapse
// perturb them mid-run.  Copies of it run on concurrent kernels, and
// their virtual completion times must equal the solo run's.
func TestConcurrentMachineContentionStress(t *testing.T) {
	const streams, quanta = 16, 50
	cost := work.Cost{Instr: 1e6, Flops: 1e6, Bytes: 1e6}
	run := func() ([]float64, error) {
		k := vtime.NewKernel()
		m := machine.New(k, machine.Jureca(1))
		m.AddWorkingSet(0, 1e9)
		place, err := machine.PlaceBlock(m, streams, 1)
		if err != nil {
			return nil, err
		}
		plan := faults.Plan{Faults: []faults.Fault{
			{Kind: faults.OneOffDelay, Rank: 2, At: 1e-4, Delay: 5e-4},
			{Kind: faults.Straggler, Rank: 7, At: 2e-4, Duration: 5e-3, Factor: 2},
			{Kind: faults.MemDegrade, Domain: 0, At: 3e-4, Duration: 4e-3, Factor: 0.25},
		}}
		if _, err := faults.Arm(k, m, place, plan); err != nil {
			return nil, err
		}
		ends := make([]float64, streams)
		for c := 0; c < streams; c++ {
			c := c
			core := place.Core(c, 0)
			k.Spawn("t", func(a *vtime.Actor) {
				for j := 0; j < quanta; j++ {
					m.Exec(a, core, cost, nil)
				}
				ends[c] = a.Now()
			})
		}
		return ends, k.Run()
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range runConcurrently(t, concurrency, run) {
		if !reflect.DeepEqual(want, got) {
			t.Errorf("copy %d: completion times diverged\n  solo %v\n  conc %v", i, want, got)
		}
	}
}
