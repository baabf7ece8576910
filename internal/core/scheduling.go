package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/joblog"
	"repro/internal/stats"
)

// WaitBucket is the queue-wait profile of one job-size class.
type WaitBucket struct {
	Nodes      int // block size
	Jobs       int
	MedianWait time.Duration
	P95Wait    time.Duration
}

// WalltimeAccuracy summarizes how well requested walltimes predict actual
// runtimes for one outcome class. Ratio = runtime / requested walltime.
type WalltimeAccuracy struct {
	Outcome     string
	Jobs        int
	MedianRatio float64
	P95Ratio    float64
	// UnderTenPct is the fraction of jobs using less than 10% of their
	// request — grossly over-requested work.
	UnderTenPct float64
}

// SchedulingResult is the queue-behaviour analysis: waiting time by job
// size and walltime-request accuracy by outcome.
type SchedulingResult struct {
	WaitBySize []WaitBucket
	// SpearmanSizeWait is the rank correlation between a job's size and its
	// queue wait — capability jobs wait longer for machine drains.
	SpearmanSizeWait float64
	Accuracy         []WalltimeAccuracy
	// PearsonReqUsed correlates requested walltime with actual runtime
	// over succeeded jobs.
	PearsonReqUsed float64
}

// Scheduling computes the queue-wait and walltime-accuracy profile.
func (d *Dataset) Scheduling() (*SchedulingResult, error) {
	if len(d.Jobs) == 0 {
		return nil, fmt.Errorf("core: no jobs")
	}
	waits := map[int][]float64{}
	// The paired-sample slices reach one entry per job; sizing them up front
	// avoids repeated growth copies on the hot suite path.
	sizes := make([]float64, 0, len(d.Jobs))
	waitVals := make([]float64, 0, len(d.Jobs))
	var okReq, okUsed []float64
	ratiosByOutcome := map[string][]float64{}
	for i := range d.Jobs {
		j := &d.Jobs[i]
		w := j.QueueWait()
		if w < 0 {
			w = 0
		}
		waits[j.Nodes] = append(waits[j.Nodes], w.Seconds())
		sizes = append(sizes, float64(j.Nodes))
		waitVals = append(waitVals, w.Seconds())
		if j.WalltimeReq > 0 {
			ratio := float64(j.Runtime()) / float64(j.WalltimeReq)
			ratiosByOutcome[j.Outcome().String()] = append(ratiosByOutcome[j.Outcome().String()], ratio)
			if j.Outcome() == joblog.OutcomeSuccess {
				okReq = append(okReq, j.WalltimeReq.Seconds())
				okUsed = append(okUsed, j.Runtime().Seconds())
			}
		}
	}
	res := &SchedulingResult{}
	nodes := make([]int, 0, len(waits))
	for n := range waits {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		qs, err := stats.Quantiles(waits[n], []float64{0.5, 0.95})
		if err != nil {
			return nil, err
		}
		res.WaitBySize = append(res.WaitBySize, WaitBucket{
			Nodes:      n,
			Jobs:       len(waits[n]),
			MedianWait: time.Duration(qs[0] * float64(time.Second)),
			P95Wait:    time.Duration(qs[1] * float64(time.Second)),
		})
	}
	trend, err := stats.Spearman(sizes, waitVals)
	if err != nil {
		return nil, fmt.Errorf("core: size-wait trend: %w", err)
	}
	res.SpearmanSizeWait = trend

	for _, outcome := range []string{"success", "failure"} {
		ratios := ratiosByOutcome[outcome]
		if len(ratios) == 0 {
			continue
		}
		qs, err := stats.Quantiles(ratios, []float64{0.5, 0.95})
		if err != nil {
			return nil, err
		}
		under := 0
		for _, r := range ratios {
			if r < 0.1 {
				under++
			}
		}
		res.Accuracy = append(res.Accuracy, WalltimeAccuracy{
			Outcome:     outcome,
			Jobs:        len(ratios),
			MedianRatio: qs[0],
			P95Ratio:    qs[1],
			UnderTenPct: float64(under) / float64(len(ratios)),
		})
	}
	if len(okReq) >= 2 {
		r, err := stats.Pearson(okReq, okUsed)
		if err != nil {
			return nil, fmt.Errorf("core: req-used correlation: %w", err)
		}
		res.PearsonReqUsed = r
	}
	return res, nil
}

// LifePhase is the reliability profile of one slice of the system's life.
type LifePhase struct {
	Label         string
	StartDay      float64
	EndDay        float64
	Jobs          int
	Failed        int
	FailRate      float64
	Interruptions int
	MTTIDays      float64
}

// LifePhasesFromMTTI computes the life-phase profile from an
// already-computed MTTI analysis, letting callers reuse a memoized result
// instead of re-filtering the FATAL stream.
func (d *Dataset) LifePhasesFromMTTI(n int, mtti *MTTIResult) ([]LifePhase, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: need ≥2 phases, got %d", n)
	}
	start, end := d.Span()
	span := end.Sub(start)
	phaseOf := func(t time.Time) int {
		idx := int(float64(n) * float64(t.Sub(start)) / float64(span))
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		return idx
	}
	phases := make([]LifePhase, n)
	for i := range phases {
		phases[i].Label = fmt.Sprintf("phase %d/%d", i+1, n)
		phases[i].StartDay = float64(i) * span.Hours() / 24 / float64(n)
		phases[i].EndDay = float64(i+1) * span.Hours() / 24 / float64(n)
	}
	for i := range d.Jobs {
		j := &d.Jobs[i]
		p := &phases[phaseOf(j.Start)]
		p.Jobs++
		if j.Outcome() == joblog.OutcomeFailure {
			p.Failed++
		}
	}
	for i := range mtti.Incidents {
		phases[phaseOf(mtti.Incidents[i].First)].Interruptions++
	}
	for i := range phases {
		p := &phases[i]
		if p.Jobs > 0 {
			p.FailRate = float64(p.Failed) / float64(p.Jobs)
		}
		if p.Interruptions > 0 {
			p.MTTIDays = (p.EndDay - p.StartDay) / float64(p.Interruptions)
		}
	}
	return phases, nil
}
