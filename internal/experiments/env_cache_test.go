package experiments

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/joblog"
	"repro/internal/sim"
)

// TestDerivedSeriesMemoized checks every derived-series accessor hands back
// the same computed object instead of re-deriving per caller, and that the
// whole-corpus analyses are the Dataset's memoized results.
func TestDerivedSeriesMemoized(t *testing.T) {
	e := env(t)
	s1, f1 := e.DurationSamples()
	s2, f2 := e.DurationSamples()
	if s1 != s2 || f1 != f2 {
		t.Error("DurationSamples recomputed instead of memoized")
	}
	succ, fail := e.D.ExecutionLengthCDFs()
	if &s1.Sorted()[0] != &succ[0] || &f1.Sorted()[0] != &fail[0] {
		t.Error("DurationSamples do not wrap the Dataset's memoized execution-length CDFs")
	}
	ch1, ch2 := e.JobCoreHours(), e.JobCoreHours()
	if len(ch1) == 0 || &ch1[0] != &ch2[0] {
		t.Error("JobCoreHours recomputed instead of memoized")
	}
	m1, err1 := e.MTTI()
	m2, err2 := e.D.MTTI(core.DefaultFilterRule())
	if err1 != nil || err2 != nil {
		t.Fatalf("MTTI: %v, %v", err1, err2)
	}
	if m1 != m2 {
		t.Error("Env.MTTI is not the Dataset's memoized default-rule MTTI")
	}
	iv1, _ := e.InterruptionIntervals()
	iv2, _ := e.InterruptionIntervals()
	if iv1 != iv2 {
		t.Error("InterruptionIntervals not served from the memoized MTTI result")
	}
	if iv1 != m1.IntervalSample {
		t.Error("InterruptionIntervals does not alias the MTTI interval sample")
	}
	a1, err1 := e.Availability()
	a2, err2 := e.D.Availability()
	if err1 != nil || err2 != nil {
		t.Fatalf("Availability: %v, %v", err1, err2)
	}
	if a1 != a2 {
		t.Error("Env.Availability is not the Dataset's memoized result")
	}
	sv1, err1 := e.Survival()
	sv2, err2 := e.D.Survival()
	if err1 != nil || err2 != nil {
		t.Fatalf("Survival: %v, %v", err1, err2)
	}
	if sv1 != sv2 {
		t.Error("Env.Survival is not the Dataset's memoized result")
	}
}

// TestDerivedSeriesCacheConcurrent hammers every cached accessor from many
// goroutines at once on a cold Dataset; the sync.Once guards must hand all
// of them the same object with no data race (run with -race).
func TestDerivedSeriesCacheConcurrent(t *testing.T) {
	e := NewEnvFromDataset(freshDataset(t, env(t).D))
	const goroutines = 16
	type view struct {
		succ, fail *dist.Sample
		coreHours  []float64
		mtti       interface{}
		avail      interface{}
		surv       interface{}
		profile    interface{}
		conc       interface{}
		incidents  []core.Incident
	}
	views := make([]view, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := &views[g]
			v.succ, v.fail = e.DurationSamples()
			v.coreHours = e.JobCoreHours()
			v.mtti, _ = e.MTTI()
			v.avail, _ = e.Availability()
			v.surv, _ = e.Survival()
			v.profile, _ = e.fusedProfile()
			v.conc, _ = e.Concentration(core.ByUser)
			v.incidents, _ = e.FatalIncidents()
			if res, _ := e.MTTI(); res != nil {
				_ = e.LostCoreHours(res)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if views[g].succ != views[0].succ || views[g].fail != views[0].fail {
			t.Fatalf("goroutine %d saw a different DurationSamples result", g)
		}
		if &views[g].coreHours[0] != &views[0].coreHours[0] {
			t.Fatalf("goroutine %d saw a different JobCoreHours slice", g)
		}
		if views[g].mtti != views[0].mtti || views[g].avail != views[0].avail ||
			views[g].surv != views[0].surv || views[g].profile != views[0].profile ||
			views[g].conc != views[0].conc || &views[g].incidents[0] != &views[0].incidents[0] {
			t.Fatalf("goroutine %d saw a different memoized analysis", g)
		}
	}
}

// TestEnvCacheNilFallback checks an Env built without a constructor serves
// every derived series through the same caches as a constructed one: the
// Dataset-memoized analyses are the very same objects, the Env-derived
// series equal the constructed environment's, and a second call returns
// the same object.
func TestEnvCacheNilFallback(t *testing.T) {
	cached := env(t)
	bare := &Env{D: cached.D, Parallelism: 1}

	s, f := bare.DurationSamples()
	cs, cf := cached.DurationSamples()
	if !reflect.DeepEqual(s.Sorted(), cs.Sorted()) || !reflect.DeepEqual(f.Sorted(), cf.Sorted()) {
		t.Error("literal DurationSamples differ from constructed")
	}
	if s2, _ := bare.DurationSamples(); s2 != s {
		t.Error("literal DurationSamples not memoized")
	}
	if ch := bare.JobCoreHours(); !reflect.DeepEqual(ch, cached.JobCoreHours()) || &ch[0] != &bare.JobCoreHours()[0] {
		t.Error("literal JobCoreHours differ from constructed or not memoized")
	}
	m, err := bare.MTTI()
	if err != nil {
		t.Fatal(err)
	}
	if cm, _ := cached.MTTI(); m != cm {
		t.Error("literal MTTI is not the constructed environment's memoized result")
	}
	if got, want := bare.LostCoreHours(m), bare.D.LostCoreHours(m); got != want {
		t.Errorf("LostCoreHours via cache = %v, direct = %v", got, want)
	}
	for name, get := range map[string]func(e *Env) (interface{}, error){
		"Availability": func(e *Env) (interface{}, error) { return e.Availability() },
		"Survival":     func(e *Env) (interface{}, error) { return e.Survival() },
	} {
		got, err := get(bare)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want, _ := get(cached); got != want {
			t.Errorf("literal %s is not the constructed environment's memoized result", name)
		}
		if again, _ := get(bare); again != got {
			t.Errorf("literal %s not memoized", name)
		}
	}
}

// TestFusedAccessorsNilCache checks every fused accessor on a
// constructor-less Env literal matches the constructed environment over the
// same dataset, and memoizes through the Dataset's shared profile.
func TestFusedAccessorsNilCache(t *testing.T) {
	c, err := sim.Generate(sim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		t.Fatal(err)
	}
	bare := &Env{D: d, Parallelism: 1}
	cached := NewEnvFromDataset(d)
	cached.Parallelism = 1

	for name, get := range map[string]func(e *Env) (interface{}, error){
		"Concentration": func(e *Env) (interface{}, error) {
			return e.Concentration(core.ByProject)
		},
		"Interrupts": func(e *Env) (interface{}, error) { return e.Interrupts() },
		"Waste":      func(e *Env) (interface{}, error) { return e.Waste() },
	} {
		got, err := get(bare)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want, _ := get(cached); got != want {
			t.Errorf("literal %s is not the constructed environment's memoized result", name)
		}
		if again, _ := get(bare); again != got {
			t.Errorf("literal %s not memoized", name)
		}
	}
	bareSum, err := bare.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if cachedSum, _ := cached.Summary(); bareSum != cachedSum {
		t.Errorf("summary: literal %+v, constructed %+v", bareSum, cachedSum)
	}
	bareTally, err := bare.ExitTally()
	if err != nil {
		t.Fatal(err)
	}
	if cachedTally, _ := cached.ExitTally(); bareTally != cachedTally {
		t.Errorf("exit tally: literal %+v, constructed %+v", bareTally, cachedTally)
	}
	fatals, err := bare.FatalIncidents()
	if err != nil {
		t.Fatal(err)
	}
	cachedFatals, _ := cached.FatalIncidents()
	if &cachedFatals[0] != &fatals[0] {
		t.Errorf("fatal incidents: literal %d, constructed %d, not one memoized stream", len(fatals), len(cachedFatals))
	}
	if again, _ := bare.FatalIncidents(); &again[0] != &fatals[0] {
		t.Error("literal fatal incidents not memoized")
	}
}

// TestTakeawaysReuseSuite checks that after RunAll every whole-corpus
// analysis Takeaways reads is the object the suite's accessors computed:
// the profile, both concentrations, the default-rule MTTI, the structure
// results, the I/O comparison and the execution-length CDFs are the same
// pointers from the Env side and from the Dataset side, so Takeaways
// recomputes none of them. Its output still matches a cold Dataset's.
func TestTakeawaysReuseSuite(t *testing.T) {
	e := NewEnvFromDataset(freshDataset(t, env(t).D))
	e.Parallelism = 2
	if _, err := RunAll(e, 2); err != nil {
		t.Fatal(err)
	}
	d := e.D
	same := func(name string, suite, dataset interface{}, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if suite != dataset {
			t.Errorf("%s: the suite's result is not the Dataset's memoized one", name)
		}
	}
	p, err := e.fusedProfile()
	same("profile", p, must(d.CorpusProfile(0)), err)
	for _, by := range []core.GroupBy{core.ByUser, core.ByProject} {
		c, err := e.Concentration(by)
		same("concentration", c, must(d.Concentration(by)), err)
	}
	m, err := e.MTTI()
	same("MTTI", m, must(d.MTTI(core.DefaultFilterRule())), err)
	for _, dim := range []core.StructureDim{core.DimNodes, core.DimTasks} {
		// E8 reads these through e.D; the Env adds no second memo.
		s, err := e.D.FailureByStructure(dim)
		same("structure "+dim.String(), s, must(d.FailureByStructure(dim)), err)
	}
	io, err := e.D.IOBehavior()
	same("I/O", io, must(d.IOBehavior()), err)
	succS, failS := e.DurationSamples()
	succ, fail := d.ExecutionLengthCDFs()
	same("succeeded CDF", &succS.Sorted()[0], &succ[0], nil)
	same("failed CDF", &failS.Sorted()[0], &fail[0], nil)

	if got, want := takeawaysDigest(t, d), takeawaysDigest(t, freshDataset(t, d)); got != want {
		t.Errorf("takeaways after the suite %s, on a cold Dataset %s", got, want)
	}
}

// must drops the error of a Dataset-side accessor call: the Env-side call
// it is compared with reads the same memo and reports that error.
func must[T any](v T, _ error) T { return v }

// TestLegacySampleEquivalenceOnExperimentSeries pins model selection on
// the real E6/E12/E22 inputs across the two ways a Sample is built: from
// raw data (NewSample copies and sorts) and from data the caller already
// sorted (NewSampleSorted, the experiments' path). Family ranking and every
// goodness-of-fit statistic must agree bit for bit.
func TestLegacySampleEquivalenceOnExperimentSeries(t *testing.T) {
	e := env(t)
	series := map[string][]float64{}

	// E6 input: failed-job runtimes of the largest exit family.
	for _, fam := range joblog.FailureFamilies() {
		if s := samplesOf(e, fam, 5000); len(s) >= 100 {
			series["e6_"+string(fam)] = s
			break
		}
	}
	// E12 input: interruption intervals.
	if m, err := e.MTTI(); err == nil && len(m.Intervals) >= 10 {
		series["e12_intervals"] = m.Intervals
	}
	// E22 input: repair durations.
	if a, err := e.Availability(); err == nil && len(a.RepairHours) >= 30 {
		series["e22_repairs"] = a.RepairHours
	}
	if len(series) < 3 {
		t.Fatalf("expected all three experiment series, got %d", len(series))
	}

	for name, data := range series {
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		raw := dist.FitAll(dist.NewSample(data), nil, 0)
		presorted := dist.FitAll(dist.NewSampleSorted(sorted), nil, 0)
		if len(raw) != len(presorted) {
			t.Fatalf("%s: result counts %d vs %d", name, len(raw), len(presorted))
		}
		for i := range raw {
			a, b := raw[i], presorted[i]
			if a.Family != b.Family || a.KS != b.KS || a.AD != b.AD ||
				a.PValue != b.PValue || a.LogL != b.LogL || a.AIC != b.AIC || a.BIC != b.BIC {
				t.Errorf("%s rank %d: raw %+v != presorted %+v", name, i, a, b)
			}
		}
		bestRaw, err1 := dist.SelectBest(dist.NewSample(data), nil)
		bestSorted, err2 := dist.SelectBest(dist.NewSampleSorted(sorted), nil)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: SelectBest err mismatch: %v vs %v", name, err1, err2)
		}
		if err1 == nil && (bestRaw.Family != bestSorted.Family || bestRaw.KS != bestSorted.KS) {
			t.Errorf("%s: SelectBest %s/%v != sorted-input SelectBest %s/%v",
				name, bestRaw.Family, bestRaw.KS, bestSorted.Family, bestSorted.KS)
		}
		if p, ok := bestRaw.Dist.(dist.Parametric); ok && err1 == nil {
			_, ks1, e1 := dist.KSPolish(p, dist.NewSample(data), 10)
			_, ks2, e2 := dist.KSPolish(p, dist.NewSampleSorted(sorted), 10)
			if e1 != nil || e2 != nil {
				t.Fatalf("%s: polish errs %v, %v", name, e1, e2)
			}
			if ks1 != ks2 {
				t.Errorf("%s: KSPolish %v != sorted-input KSPolish %v", name, ks1, ks2)
			}
		}
	}
}
