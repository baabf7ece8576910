package core

import (
	"time"

	"repro/internal/bitmap"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/scan"
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

// fusedScanSel is FusedScan restricted to the given row selections (nil =
// all rows on that side).
func (d *Dataset) fusedScanSel(jobSel, eventSel *bitmap.Bitmap, workers int) (*FusedProfile, error) {
	if jobSel == nil && eventSel == nil {
		return d.FusedScan(workers)
	}
	jv := d.JobView()
	ev := d.EventView()
	// The temporal kernel and Summary.Days depend on the observation span,
	// which for a cohort is the span NewDataset would derive from the
	// selected records — computed in a cheap pre-pass so day bins line up
	// exactly with a materialized dataset's.
	start, end := d.cohortSpan(jobSel, eventSel)
	tk := newTemporalJobKernelSpan(start, end)
	jobKernels := []JobKernel{
		summaryKernel{},
		exitTallyKernel{},
		newJointKernelWhere(d, DefaultJointOptions(), eventSel),
		newGroupKernel(ByUser, len(jv.Users)),
		newGroupKernel(ByProject, len(jv.Projects)),
		wasteKernel{},
		tk,
	}
	jsts, err := scan.RunWhere(jv, jv.N, jobSel, jobKernels, workers)
	if err != nil {
		return nil, err
	}
	eventKernels := []EventKernel{
		&profileKernel{nCats: len(ev.Cats), nComps: len(ev.Comps)},
		&temporalEventKernel{monthCap: tk.monthCap},
		&localityKernel{level: machine.LevelMidplane},
		&localityKernel{level: machine.LevelRack},
	}
	ests, err := scan.RunWhere(ev, ev.N, eventSel, eventKernels, workers)
	if err != nil {
		return nil, err
	}

	p := &FusedProfile{jv: jv, jobSel: jobSel}
	sum := jsts[0].(*summaryState)
	prof := ests[0].(*profileState)
	nJobs, nTasks, nIO := d.cohortJobCounts(jobSel)
	nEvents := len(d.Events)
	if eventSel != nil {
		nEvents = eventSel.Cardinality()
	}
	p.Exit = jsts[1].(*exitTallyState).t
	p.Joint = jsts[2].(*jointState).t
	p.UserGroups = jsts[3].(*groupState).finish(jv.Users)
	p.ProjectGroups = jsts[4].(*groupState).finish(jv.Projects)
	p.Waste = jsts[5].(*wasteState).finish()
	p.Temporal = finishTemporal(jsts[6].(*temporalJobState), ests[1].(*temporalEventState))
	p.RAS = prof.finish(ev)
	p.localityMid, p.localityMidErr = ests[2].(*localityState).finish()
	p.localityRack, p.localityRackErr = ests[3].(*localityState).finish()
	p.Interrupts, p.InterruptsErr = interruptsFromGroups(p.UserGroups)
	p.Summary = Summary{
		Days:        end.Sub(start).Hours() / 24,
		Jobs:        nJobs,
		Tasks:       nTasks,
		Users:       len(p.UserGroups),
		Projects:    len(p.ProjectGroups),
		CoreHours:   float64(sum.coreSec) / 3600,
		RASTotal:    nEvents,
		RASFatal:    prof.sevs[raslog.Fatal],
		RASWarn:     prof.sevs[raslog.Warn],
		RASInfo:     nEvents - prof.sevs[raslog.Fatal] - prof.sevs[raslog.Warn],
		IORecords:   nIO,
		FailedJobs:  sum.failed,
		SuccessJobs: sum.success,
	}
	return p, nil
}

// cohortJobCounts tallies the selected jobs and their task and I/O record
// counts (the Summary rows a materialized dataset would report).
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
// bit for bit. An empty cohort yields the zero span.
func (d *Dataset) cohortSpan(jobSel, eventSel *bitmap.Bitmap) (start, end time.Time) {
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
