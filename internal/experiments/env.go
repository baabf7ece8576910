// Package experiments regenerates every table and figure of the paper's
// evaluation (the E1–E23 index in DESIGN.md) from a synthetic corpus. Each
// experiment returns renderable tables/figures plus a flat metric map that
// EXPERIMENTS.md and the regression tests compare against the paper's
// anchors.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/report"
	"repro/internal/sim"
)

// Env is the shared evaluation environment: one generated corpus and its
// indexed dataset. The whole-corpus analyses several experiments share —
// the fused scan profile, concentration, the default-rule MTTI and
// incident streams, availability, survival, structure, I/O and the
// execution-length CDFs — are memoized on the Dataset itself (see
// core.Dataset.CorpusProfile), so core.Dataset.Takeaways reuses what the
// suite computed; the Env adds only the series derived from them.
//
// An Env must not be copied after first use. The constructors are
// conveniences: an Env literal with D set memoizes through the same path.
type Env struct {
	Cfg    sim.Config
	Corpus *sim.Corpus
	D      *core.Dataset
	// Parallelism bounds the workers used by the parallel substrates the
	// experiments call (the fused scan, distribution fitting, the
	// filter-window sweep); ≤ 0 means GOMAXPROCS. Results are identical at
	// any setting.
	Parallelism int

	cache envCache
}

// envCache memoizes the experiment-side series derived from the Dataset's
// memoized analyses: the sorted job-duration Samples per outcome (wrapping
// the memoized execution-length CDFs) and the per-job core-hours series.
// sync.Once makes each safe to request from concurrently running
// experiments while computing it exactly once.
type envCache struct {
	durOnce          sync.Once
	durSucc, durFail *dist.Sample
	coreHoursOnce    sync.Once
	coreHours        []float64

	// Cohort profiles keyed by the predicate's canonical form (see
	// cohort.go). A map rather than sync.Once because the key space is
	// open-ended — any -where expression.
	cohortMu sync.Mutex
	cohorts  map[string]*core.FusedProfile
}

// NewEnv generates a corpus with at most workers goroutines (≤ 0 means
// GOMAXPROCS) and indexes it. The corpus — and therefore every downstream
// experiment — is identical for any worker count; the bound also becomes
// the environment's Parallelism.
func NewEnv(cfg sim.Config, workers int) (*Env, error) {
	c, err := sim.GenerateParallel(cfg, workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	d, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Env{Cfg: cfg, Corpus: c, D: d, Parallelism: workers}, nil
}

// NewEnvFromDataset wraps an already-loaded dataset (e.g. a CSV corpus read
// back by mirareport) as an evaluation environment.
func NewEnvFromDataset(d *core.Dataset) *Env {
	return &Env{D: d}
}

// DurationSamples returns the per-outcome execution-length Samples
// (seconds, sorted with sufficient statistics): succeeded and failed jobs.
// The extraction and sort happen once per environment no matter how many
// experiments request them.
func (e *Env) DurationSamples() (succeeded, failed *dist.Sample) {
	c := &e.cache
	c.durOnce.Do(func() {
		s, f := e.D.ExecutionLengthCDFs() // already sorted ascending
		c.durSucc, c.durFail = dist.NewSampleSorted(s), dist.NewSampleSorted(f)
	})
	return c.durSucc, c.durFail
}

// JobCoreHours returns the per-job core-hours series, aligned with D.Jobs
// (use D.JobPos to index it by job id), computed once per environment.
func (e *Env) JobCoreHours() []float64 {
	c := &e.cache
	c.coreHoursOnce.Do(func() {
		c.coreHours = make([]float64, len(e.D.Jobs))
		for i := range e.D.Jobs {
			c.coreHours[i] = e.D.Jobs[i].CoreHours()
		}
	})
	return c.coreHours
}

// MTTI returns the default-rule mean-time-to-interruption analysis,
// memoized on the Dataset (shared, read-only). Experiments needing a
// non-default filter rule should call D.MTTI directly.
func (e *Env) MTTI() (*core.MTTIResult, error) { return e.D.MTTI(core.DefaultFilterRule()) }

// InterruptionIntervals returns the sorted interruption-interval Sample
// (hours) from the memoized default-rule MTTI analysis; nil when there are
// too few incidents to form intervals.
func (e *Env) InterruptionIntervals() (*dist.Sample, error) {
	res, err := e.MTTI()
	if err != nil {
		return nil, err
	}
	return res.IntervalSample, nil
}

// LostCoreHours sums the core-hours of the jobs interrupted in r using the
// memoized per-job core-hours series.
func (e *Env) LostCoreHours(r *core.MTTIResult) float64 {
	ch := e.JobCoreHours()
	total := 0.0
	for _, id := range r.InterruptedJobs() {
		if pos, ok := e.D.JobPos(id); ok {
			total += ch[pos]
		}
	}
	return total
}

// Availability returns the service-action availability analysis (with its
// repair-time Sample), memoized on the Dataset (shared, read-only).
func (e *Env) Availability() (*core.AvailabilityResult, error) { return e.D.Availability() }

// Survival returns the Kaplan–Meier time-to-user-failure analysis,
// memoized on the Dataset (shared, read-only).
func (e *Env) Survival() (*core.SurvivalResult, error) { return e.D.Survival() }

// Result is one experiment's regenerated artifact.
type Result struct {
	ID          string
	Description string
	Tables      []*report.Table
	Figures     []*report.Figure
	// Metrics is the flat key→value view used for paper-vs-measured
	// comparison and the regression tests.
	Metrics map[string]float64
}

// Experiment is a runnable table/figure regeneration.
type Experiment struct {
	ID          string
	Description string
	Run         func(*Env) (*Result, error)
}

// experimentList is the canonical experiment registry; All returns copies
// of it and byID indexes it at init.
var experimentList = []Experiment{
	{"E1", "dataset summary (Table I)", E1},
	{"E2", "workload concentration by user/project", E2},
	{"E3", "job structure distributions", E3},
	{"E4", "exit-status breakdown; user vs system share", E4},
	{"E5", "execution-length CDFs by outcome", E5},
	{"E6", "best-fit distributions per exit family", E6},
	{"E7", "failure correlation with users/projects", E7},
	{"E8", "failure rate vs job structure", E8},
	{"E9", "RAS severity/category/component profile", E9},
	{"E10", "spatial locality of FATAL events", E10},
	{"E11", "similarity-filtering sensitivity sweep", E11},
	{"E12", "MTTI and interruption-interval fit", E12},
	{"E13", "I/O behavior vs job outcome", E13},
	{"E14", "temporal patterns of jobs and failures", E14},
	{"E15", "system interruptions vs user consumption", E15},
	{"E16", "WARN→FATAL precursor lead-time analysis", E16},
	{"E17", "queue wait and walltime-request accuracy", E17},
	{"E18", "reliability over the system's life (bathtub)", E18},
	{"E19", "compute cost of failures (wasted core-hours)", E19},
	{"E20", "resubmission behaviour and outcome repetition", E20},
	{"E21", "torus spatial correlation of incidents", E21},
	{"E22", "availability and repair-time distribution", E22},
	{"E23", "Kaplan–Meier survival of jobs vs user failure", E23},
}

// byID indexes the registry once; ByID was previously a linear scan over a
// freshly allocated slice on every call.
var byID = func() map[string]Experiment {
	m := make(map[string]Experiment, len(experimentList))
	for _, e := range experimentList {
		m[e.ID] = e
	}
	return m
}()

// All lists every experiment in index order. The returned slice is a copy;
// callers may reorder it freely.
func All() []Experiment {
	return append([]Experiment(nil), experimentList...)
}

// ByID returns the experiment with the given ID. The lookup is
// case-insensitive, so the -exp flag accepts e6 as well as E6.
func ByID(id string) (Experiment, bool) {
	e, ok := byID[strings.ToUpper(id)]
	return e, ok
}

// sortedMetricKeys returns the metric names in stable order for rendering.
func sortedMetricKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MetricsTable renders a result's metrics as a two-column table.
func MetricsTable(r *Result) *report.Table {
	t := &report.Table{Title: r.ID + " metrics", Columns: []string{"metric", "value"}}
	for _, k := range sortedMetricKeys(r.Metrics) {
		t.AddRow(k, r.Metrics[k])
	}
	return t
}
