package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/joblog"
	"repro/internal/stats"
)

// StructureDim selects a job-structure attribute for the failure-rate
// bucketing of experiment E8.
type StructureDim int

// Structure dimensions.
const (
	DimNodes     StructureDim = iota + 1 // job scale (block size)
	DimTasks                             // number of physical tasks
	DimCoreHours                         // consumed core-hours
	DimRuntime                           // execution length (hours)
)

// String implements fmt.Stringer.
func (s StructureDim) String() string {
	switch s {
	case DimNodes:
		return "nodes"
	case DimTasks:
		return "tasks"
	case DimCoreHours:
		return "core-hours"
	case DimRuntime:
		return "runtime-h"
	default:
		return fmt.Sprintf("StructureDim(%d)", int(s))
	}
}

func (s StructureDim) value(j *joblog.Job) float64 {
	switch s {
	case DimNodes:
		return float64(j.Nodes)
	case DimTasks:
		return float64(j.NumTasks)
	case DimCoreHours:
		return j.CoreHours()
	default:
		return j.Runtime().Hours()
	}
}

// Bucket is one row of a failure-rate-by-structure table.
type Bucket struct {
	Lo, Hi   float64 // value range [Lo, Hi)
	Jobs     int
	Failed   int
	FailRate float64
}

// StructureResult is the bucketed failure-rate profile for one dimension.
type StructureResult struct {
	Dim     StructureDim
	Buckets []Bucket
	// SpearmanTrend is the rank correlation between the attribute value and
	// job failure (0/1) across all jobs — the monotone-trend statistic.
	SpearmanTrend float64
}

// FailureByStructure buckets jobs by a structure attribute and reports the
// per-bucket failure rate. For DimNodes the buckets are the schedulable
// block sizes; other dimensions use logarithmic buckets.
//
// The result for each defined dimension is memoized on the Dataset: it is
// shared and read-only. An unknown dimension computes a fresh result.
func (d *Dataset) FailureByStructure(dim StructureDim) (*StructureResult, error) {
	if dim < DimNodes || dim > DimRuntime {
		return d.failureByStructure(dim)
	}
	return d.memo.structure[dim-DimNodes].get(func() (*StructureResult, error) { return d.failureByStructure(dim) })
}

func (d *Dataset) failureByStructure(dim StructureDim) (*StructureResult, error) {
	if len(d.Jobs) == 0 {
		return nil, fmt.Errorf("core: no jobs")
	}
	res := &StructureResult{Dim: dim}

	var edges []float64
	if dim == DimNodes {
		for _, n := range []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 49152} {
			edges = append(edges, float64(n))
		}
		edges = append(edges, float64(49152+1))
	} else {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range d.Jobs {
			v := dim.value(&d.Jobs[i])
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo <= 0 {
			lo = math.SmallestNonzeroFloat64
		}
		if hi <= lo {
			hi = lo * 10
		}
		const buckets = 8
		ratio := math.Pow(hi/lo, 1.0/buckets)
		edges = append(edges, lo)
		for i := 1; i <= buckets; i++ {
			edges = append(edges, lo*math.Pow(ratio, float64(i)))
		}
		edges[len(edges)-1] = math.Nextafter(hi, math.Inf(1))
	}

	res.Buckets = make([]Bucket, len(edges)-1)
	for i := range res.Buckets {
		res.Buckets[i].Lo = edges[i]
		res.Buckets[i].Hi = edges[i+1]
	}
	values := make([]float64, len(d.Jobs))
	failed := make([]float64, len(d.Jobs))
	for i := range d.Jobs {
		j := &d.Jobs[i]
		v := dim.value(j)
		values[i] = v
		if j.Outcome() == joblog.OutcomeFailure {
			failed[i] = 1
		}
		idx := sort.SearchFloat64s(edges, v)
		// SearchFloat64s returns the first edge ≥ v; bucket index is idx-1
		// except when v equals an edge exactly.
		if idx < len(edges) && edges[idx] == v {
			idx++
		}
		idx--
		if idx < 0 {
			idx = 0
		}
		if idx >= len(res.Buckets) {
			idx = len(res.Buckets) - 1
		}
		res.Buckets[idx].Jobs++
		if failed[i] == 1 {
			res.Buckets[idx].Failed++
		}
	}
	for i := range res.Buckets {
		if res.Buckets[i].Jobs > 0 {
			res.Buckets[i].FailRate = float64(res.Buckets[i].Failed) / float64(res.Buckets[i].Jobs)
		}
	}
	trend, err := stats.Spearman(values, failed)
	if err != nil {
		return nil, fmt.Errorf("core: structure trend: %w", err)
	}
	res.SpearmanTrend = trend
	return res, nil
}

// JobStructureSummary describes the corpus' job-structure distributions
// (experiment E3): scale, tasks, runtime, core-hours.
type JobStructureSummary struct {
	Nodes     stats.Summary
	Tasks     stats.Summary
	RuntimeH  stats.Summary
	CoreHours stats.Summary
	// SizeHistogram counts jobs per schedulable block size.
	SizeHistogram map[int]int
}

// StructureSummary computes E3's distributions.
func (d *Dataset) StructureSummary() (*JobStructureSummary, error) {
	n := len(d.Jobs)
	nodes := make([]float64, n)
	tasks := make([]float64, n)
	runtime := make([]float64, n)
	ch := make([]float64, n)
	hist := map[int]int{}
	for i := range d.Jobs {
		j := &d.Jobs[i]
		nodes[i] = float64(j.Nodes)
		tasks[i] = float64(j.NumTasks)
		runtime[i] = j.Runtime().Hours()
		ch[i] = j.CoreHours()
		hist[j.Nodes]++
	}
	out := &JobStructureSummary{SizeHistogram: hist}
	var err error
	if out.Nodes, err = stats.Summarize(nodes); err != nil {
		return nil, err
	}
	if out.Tasks, err = stats.Summarize(tasks); err != nil {
		return nil, err
	}
	if out.RuntimeH, err = stats.Summarize(runtime); err != nil {
		return nil, err
	}
	if out.CoreHours, err = stats.Summarize(ch); err != nil {
		return nil, err
	}
	return out, nil
}
