package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pack"
)

// anchor is a paper anchor band the experiments tests assert, scaled from
// their 150-day corpus to the full 2001 days where the quantity scales
// with the span.
type anchor struct {
	exp, metric string
	lo, hi      float64
}

var reportAnchors = []anchor{
	{"E1", "days", 2000, 2003},
	{"E1", "jobs", 347000 * 0.85, 347000 * 1.15},
	{"E1", "core_hours_b", 32.44 * 0.9, 32.44 * 1.15},
	{"E4", "user_share", 0.985, 0.999},           // user-caused share of failures
	{"E12", "mtti_days", 3.5 * 0.65, 3.5 * 1.45}, // mean time to interruption
}

// childReport is one `mirareport -in` run over the snapshot: read, build
// the environment, run the suite on nproc workers, compute the takeaways
// and render everything, timed from the file to the last rendered byte.
// With -anchors it also checks the suite against the full-scale anchors.
func childReport(o options, in string) (stepOut, error) {
	res := newStepOut()
	tr := newTracer(fmt.Sprintf("report/seed%d/pid%d", o.seed, os.Getpid()), o.trace)
	mem := markMem()
	t0 := time.Now()
	root := tr.begin("report", 0)

	var d *core.Dataset
	var env *experiments.Env
	var results []*experiments.Result
	var ts []core.Takeaway
	var out bytes.Buffer
	err := tr.do("pack.read", root, func() (err error) { d, err = pack.ReadFile(in); return err })
	if err == nil {
		err = tr.do("experiments.env", root, func() error { env = experiments.NewEnvFromDataset(d); return nil })
	}
	if err == nil {
		err = tr.do("experiments.runall", root, func() (err error) {
			results, err = experiments.RunAll(env, runtime.NumCPU())
			return err
		})
	}
	if err == nil {
		err = tr.do("core.takeaways", root, func() (err error) { ts, err = d.Takeaways(); return err })
	}
	if err == nil {
		err = tr.do("report.render", root, func() error { return renderReport(&out, results, ts) })
	}
	if err != nil {
		return res, err
	}
	tr.end(root)
	res.Values["report_s"] = time.Since(t0).Seconds()
	mem.recordSince(res.Values)

	sum := sha256.Sum256(out.Bytes())
	res.Strings["digest"] = hex.EncodeToString(sum[:])
	res.Values["bytes"] = float64(out.Len())
	byID := map[string]*experiments.Result{}
	for _, r := range results {
		byID[r.ID] = r
	}
	anchors := reportAnchors
	if !o.anchors {
		anchors = nil
	}
	for _, a := range anchors {
		r, ok := byID[a.exp]
		if !ok {
			res.Failures = append(res.Failures, fmt.Sprintf("%s missing from the suite", a.exp))
			continue
		}
		v, ok := r.Metrics[a.metric]
		if !ok || v < a.lo || v > a.hi {
			res.Failures = append(res.Failures, fmt.Sprintf("%s %s = %v, want in [%v, %v]", a.exp, a.metric, v, a.lo, a.hi))
		}
	}
	res.Values["jobs"] = float64(len(d.Jobs))
	res.Values["events"] = float64(len(d.Events))
	res.Spans = tr.all()
	return res, nil
}

// renderReport writes exactly what mirareport prints without -exp: every
// experiment's tables and figures, then the takeaways.
func renderReport(w *bytes.Buffer, results []*experiments.Result, ts []core.Takeaway) error {
	for _, res := range results {
		fmt.Fprintf(w, "=== %s: %s ===\n", res.ID, res.Description)
		for _, t := range res.Tables {
			if err := t.Render(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		for _, f := range res.Figures {
			if err := f.Render(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "=== 22 takeaways ===")
	for _, t := range ts {
		fmt.Fprintf(w, "%2d. [%s] %s\n", t.ID, t.Tag, t.Text)
	}
	return nil
}

// childExperiments times each experiment alone: a sequential first-touch
// pass over a freshly read Dataset and Env, so an experiment that first
// touches a shared cache (the fused profile, MTTI, …) pays for it.
func childExperiments(o options, in string) (stepOut, error) {
	res := newStepOut()
	tr := newTracer(fmt.Sprintf("experiments-first-touch/seed%d", o.seed), true)
	d, err := pack.ReadFile(in)
	if err != nil {
		return res, err
	}
	env := experiments.NewEnvFromDataset(d)
	root := tr.begin("experiments.sequential_first_touch", 0)
	for _, exp := range experiments.All() {
		if err := tr.do("experiments."+exp.ID, root, func() error { _, err := exp.Run(env); return err }); err != nil {
			return res, fmt.Errorf("%s: %w", exp.ID, err)
		}
	}
	tr.end(root)
	res.Spans = tr.all()
	return res, nil
}

// experimentsPass runs the sequential first-touch pass over the snapshot
// and keeps its spans.
func experimentsPass(ctx context.Context, o options, snap string, oc *outcome) error {
	var res stepOut
	if _, _, err := runOnce(ctx, o, &res, "experiments", "-in", snap); err != nil {
		return err
	}
	oc.spans = append(oc.spans, res.Spans...)
	return nil
}

// reportPass runs the report path once, traced, over the snapshot of a
// workload that does not take that path itself, and keeps its spans and
// digest. The anchors apply only to a full-scale snapshot.
func reportPass(ctx context.Context, o options, snap string, fullScale bool, oc *outcome) (stepOut, error) {
	var res stepOut
	args := []string{"-in", snap}
	if fullScale {
		args = append(args, "-anchors")
	}
	if _, _, err := runOnce(ctx, o, &res, "report", args...); err != nil {
		return res, err
	}
	oc.attempted++
	for _, f := range res.Failures {
		oc.fail("report pass: %s", f)
	}
	oc.digests["report_sha256"] = res.Strings["digest"]
	oc.spans = append(oc.spans, res.Spans...)
	return res, nil
}

// minReportReps is the least number of timed report repeats in a run.
const minReportReps = 4

// runReport sets up the full-scale snapshot, then repeats the report for
// the run's duration. The first repeat after set-up runs about 5% slower
// than the rest, so it is checked but not timed. A traced run then runs
// the first-touch experiments pass and the serve path over the snapshot.
func runReport(ctx context.Context, o options) (*outcome, error) {
	oc := &outcome{digests: map[string]string{}, samples: map[string]int{}}
	snap, setup, setupS, err := setupCorpus(ctx, o, oc)
	if err != nil {
		return nil, err
	}
	var reps, rss, plain []float64
	var traced []stepOut
	var start time.Time
	for rep := 0; rep <= minReportReps || time.Since(start) < time.Duration(o.seconds)*time.Second; rep++ {
		if rep == 1 {
			start = time.Now()
		}
		ro := o
		ro.trace = o.trace && rep%2 == 0 && rep > 0 // traced runs alternate plain and traced repeats
		var res stepOut
		peak, _, err := runOnce(ctx, ro, &res, "report", "-in", snap, "-anchors")
		if err != nil {
			return nil, err
		}
		oc.attempted++
		problems := res.Failures
		digest := res.Strings["digest"]
		if prev, ok := oc.digests["report_sha256"]; ok && prev != digest {
			problems = append(problems, fmt.Sprintf("report sha256 %s differs from rep 0's %s", digest, prev))
		}
		oc.digests["report_sha256"] = digest
		if len(problems) > 0 {
			oc.fail("report rep %d: %v", rep, problems)
		}
		if rep == 0 {
			continue
		}
		reps = append(reps, res.Values["report_s"])
		rss = append(rss, peak)
		if ro.trace {
			traced = append(traced, res)
			oc.spans = append(oc.spans, res.Spans...)
		} else {
			plain = append(plain, res.Values["report_s"])
		}
	}
	oc.samples["repeats"] = len(reps)
	oc.series = map[string][]float64{"path_s": reps, "peak_rss_mb": rss}
	oc.endToEnd = repeatMetrics(setupS, rss, reps)
	if !o.trace {
		return oc, nil
	}
	pl := map[string]float64{}
	if err := experimentsPass(ctx, o, snap, oc); err != nil {
		return nil, err
	}
	if _, err := traceServe(ctx, o, o.work, oc, pl); err != nil {
		return nil, err
	}
	spanLayers(pl, oc.spans)
	setupLayers(pl, setup)
	pl["report.bytes"] = medianOf(traced, "bytes")
	pl["runtime.alloc_mb"] = medianOf(traced, "alloc_mb")
	pl["runtime.gc_cycles"] = medianOf(traced, "gc_cycles")
	pl["trace.overhead_s"] = medianOf(traced, "report_s") - median(plain)
	oc.perLayer = pl
	return oc, nil
}
