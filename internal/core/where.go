package core

import (
	"time"

	"repro/internal/bitmap"
	"repro/internal/sel"
)

// FusedScanWhere runs the fused analysis suite over the cohort a predicate
// selects, without materializing a filtered dataset: the compiled job and
// event selections push down into the scan engine, which skips unselected
// blocks and feeds the kernels only the selected row runs. The profile is
// bit-identical to a FusedScan over the materialized cohort — the same
// numbers a filter-then-scan would produce — at any worker count (the
// equivalence tests check it against oracle.MaterializeWhere; DESIGN.md
// §14).
//
// A nil predicate profiles the whole corpus.
func (d *Dataset) FusedScanWhere(e sel.Expr, workers int) (*FusedProfile, error) {
	if e == nil {
		return d.FusedScan(workers)
	}
	jobSel, eventSel, err := d.CompileWhere(e)
	if err != nil {
		return nil, err
	}
	return d.fusedScanSel(jobSel, eventSel, workers)
}

// cohortJobCounts tallies the selected jobs and their task and I/O record
// counts (the Summary rows a materialized dataset would report); a nil
// selection counts the whole dataset.
func (d *Dataset) cohortJobCounts(jobSel *bitmap.Bitmap) (jobs, tasks, io int) {
	if jobSel == nil {
		return len(d.Jobs), len(d.Tasks), len(d.IO)
	}
	jobSel.Iterate(func(row uint32) bool {
		jobs++
		tasks += len(d.tasksOf[row])
		if d.ioOf[row] >= 0 {
			io++
		}
		return true
	})
	return jobs, tasks, io
}

// cohortSpan computes the observation window of the selected records with
// exactly NewDataset's min/max walk — first selected job seeds the bounds,
// jobs widen by Submit/End, then events widen in the same else-if pattern —
// so a cohort profile's calendar math matches a materialized dataset's
// bit for bit. An empty cohort yields the zero span; with both selections
// nil it is the dataset's own span.
func (d *Dataset) cohortSpan(jobSel, eventSel *bitmap.Bitmap) (start, end time.Time) {
	if jobSel == nil && eventSel == nil {
		return d.Span()
	}
	seeded := false
	forEachSelected(jobSel, len(d.Jobs), func(row int) {
		j := &d.Jobs[row]
		if !seeded {
			start, end = j.Submit, j.End
			seeded = true
			return
		}
		if j.Submit.Before(start) {
			start = j.Submit
		}
		if j.End.After(end) {
			end = j.End
		}
	})
	forEachSelected(eventSel, len(d.Events), func(row int) {
		t := d.Events[row].Time
		if !seeded {
			start, end = t, t
			seeded = true
			return
		}
		if t.Before(start) {
			start = t
		} else if t.After(end) {
			end = t
		}
	})
	return start, end
}

// forEachSelected visits the selected rows in ascending order; a nil
// selection visits all n rows.
func forEachSelected(sel *bitmap.Bitmap, n int, f func(row int)) {
	if sel == nil {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	sel.Iterate(func(row uint32) bool {
		f(int(row))
		return true
	})
}
