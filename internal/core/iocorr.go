package core

import (
	"fmt"
	"sort"

	"repro/internal/joblog"
	"repro/internal/stats"
)

// IOCorrelation compares the I/O behavior of succeeded and failed jobs
// (experiment E13) over the jobs that have a Darshan-style record.
type IOCorrelation struct {
	SampledJobs   int
	SuccessBytes  stats.Summary // total bytes moved, succeeded jobs
	FailedBytes   stats.Summary // total bytes moved, failed jobs
	SuccessIOSecs stats.Summary
	FailedIOSecs  stats.Summary
	// MedianRatio is median(success bytes) / median(failed bytes): > 1
	// means failed jobs move less data (they die before doing their I/O).
	MedianRatio float64
	// KSBytes is the two-sample KS distance between the two byte
	// distributions; large values mean clearly different I/O behavior.
	KSBytes float64
	// SpearmanBytesOutcome is the rank correlation between bytes moved and
	// success (0/1).
	SpearmanBytesOutcome float64
}

// IOBehavior computes E13's I/O-vs-outcome comparison, once per Dataset:
// the result is shared and read-only.
func (d *Dataset) IOBehavior() (*IOCorrelation, error) {
	return d.memo.io.get(d.ioBehavior)
}

func (d *Dataset) ioBehavior() (*IOCorrelation, error) {
	var okBytes, failBytes, okSecs, failSecs []float64
	var bytesAll, successAll []float64
	for i := range d.Jobs {
		j := &d.Jobs[i]
		if d.ioOf[i] < 0 {
			continue
		}
		rec := d.IO[d.ioOf[i]]
		b := float64(rec.TotalBytes())
		s := rec.IOTime.Seconds()
		bytesAll = append(bytesAll, b)
		if j.Outcome() == joblog.OutcomeSuccess {
			okBytes = append(okBytes, b)
			okSecs = append(okSecs, s)
			successAll = append(successAll, 1)
		} else {
			failBytes = append(failBytes, b)
			failSecs = append(failSecs, s)
			successAll = append(successAll, 0)
		}
	}
	if len(okBytes) == 0 || len(failBytes) == 0 {
		return nil, fmt.Errorf("core: need I/O records for both outcomes (ok=%d fail=%d)", len(okBytes), len(failBytes))
	}
	res := &IOCorrelation{SampledJobs: len(bytesAll)}
	var err error
	if res.SuccessBytes, err = stats.Summarize(okBytes); err != nil {
		return nil, err
	}
	if res.FailedBytes, err = stats.Summarize(failBytes); err != nil {
		return nil, err
	}
	if res.SuccessIOSecs, err = stats.Summarize(okSecs); err != nil {
		return nil, err
	}
	if res.FailedIOSecs, err = stats.Summarize(failSecs); err != nil {
		return nil, err
	}
	if res.FailedBytes.Median > 0 {
		res.MedianRatio = res.SuccessBytes.Median / res.FailedBytes.Median
	}
	if res.KSBytes, err = stats.KSTwoSample(okBytes, failBytes); err != nil {
		return nil, err
	}
	if res.SpearmanBytesOutcome, err = stats.Spearman(bytesAll, successAll); err != nil {
		return nil, err
	}
	return res, nil
}

// InterruptCorrelation quantifies how system interruptions track user
// activity and core-hours (E15): bigger consumers absorb more of the
// machine, so they are interrupted more.
type InterruptCorrelation struct {
	// PearsonCHInterrupts correlates per-user core-hours with per-user
	// system-interrupt counts.
	PearsonCHInterrupts float64
	// PearsonJobsInterrupts correlates per-user job counts with interrupts.
	PearsonJobsInterrupts float64
	// TopDecileShare is the share of interrupts hitting the top 10% of
	// users by core-hours.
	TopDecileShare float64
	Users          int
	Interrupted    int // users with ≥1 system interrupt
}

// interruptCorrelationFrom computes the correlation profile from aligned
// per-user series in deterministic (alphabetical) user order.
func interruptCorrelationFrom(ch, jobs, ints []float64) (*InterruptCorrelation, error) {
	res := &InterruptCorrelation{Users: len(ch)}
	for _, n := range ints {
		if n > 0 {
			res.Interrupted++
		}
	}
	var err error
	if res.PearsonCHInterrupts, err = stats.Pearson(ch, ints); err != nil {
		return nil, err
	}
	if res.PearsonJobsInterrupts, err = stats.Pearson(jobs, ints); err != nil {
		return nil, err
	}
	// Top decile by core-hours.
	idx := make([]int, len(ch))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ch[idx[a]] > ch[idx[b]] })
	k := len(idx) / 10
	if k < 1 {
		k = 1
	}
	var top, total float64
	for i, id := range idx {
		total += ints[id]
		if i < k {
			top += ints[id]
		}
	}
	if total > 0 {
		res.TopDecileShare = top / total
	}
	return res, nil
}
