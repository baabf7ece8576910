package core

import (
	"fmt"
	"time"

	"repro/internal/bitmap"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/scan"
)

// FusedProfile is the result of one fused pass over the job and event
// columns: every whole-corpus aggregate the experiments and takeaways
// consume — summary, exit-status and joint failure tallies, per-user and
// per-project groups, temporal and RAS profiles, waste, interruptions and
// FATAL locality. The reference walks these numbers are tested against live
// in internal/oracle.
type FusedProfile struct {
	jv *scan.JobView
	// jobSel is the cohort's job selection when the profile came from
	// FusedScanWhere; nil means the whole corpus.
	jobSel *bitmap.Bitmap

	Summary Summary
	// Exit and Joint are the exit-status-only and RAS-correlated failure
	// tallies.
	Exit  FailTally
	Joint FailTally
	// UserGroups / ProjectGroups are the per-key aggregates, jobs
	// descending, key ascending.
	UserGroups    []GroupStats
	ProjectGroups []GroupStats
	Temporal      *TemporalProfile
	RAS           *CategoryProfile
	Waste         *WasteResult
	Interrupts    *InterruptCorrelation
	InterruptsErr error

	localityMid, localityRack       *LocalityResult
	localityMidErr, localityRackErr error
}

// Groups returns the per-user or per-project aggregates.
func (p *FusedProfile) Groups(by GroupBy) []GroupStats {
	if by == ByProject {
		return p.ProjectGroups
	}
	return p.UserGroups
}

// Locality returns the FATAL spatial-concentration result at the level.
func (p *FusedProfile) Locality(level machine.Level) (*LocalityResult, error) {
	switch level {
	case machine.LevelMidplane:
		return p.localityMid, p.localityMidErr
	case machine.LevelRack:
		return p.localityRack, p.localityRackErr
	default:
		return nil, fmt.Errorf("core: locality level must be rack or midplane, got %v", level)
	}
}

// Concentration computes the concentration/correlation profile for the
// grouping from the fused aggregates; the per-job key and outcome columns
// for Cramér's V come from the scan view instead of a fresh AoS walk.
func (p *FusedProfile) Concentration(by GroupBy) (*ConcentrationResult, error) {
	v := p.jv
	ids := v.UserID
	dict := v.Users
	if by == ByProject {
		ids = v.ProjectID
		dict = v.Projects
	}
	n := v.N
	if p.jobSel != nil {
		n = p.jobSel.Cardinality()
	}
	keys := make([]string, 0, n)
	outcomes := make([]string, 0, n)
	forEachSelected(p.jobSel, v.N, func(i int) {
		keys = append(keys, dict[ids[i]])
		// Matches joblog.Outcome.String for the two possible values.
		if v.Family[i] == 0 {
			outcomes = append(outcomes, "success")
		} else {
			outcomes = append(outcomes, "failure")
		}
	})
	return concentrationFromGroups(by, p.Groups(by), keys, outcomes)
}

// FusedScan runs every registered aggregation kernel over the job and event
// column views in one pass each, fanned out over at most workers goroutines
// (≤ 0 means GOMAXPROCS). Results are bit-identical at any worker count.
func (d *Dataset) FusedScan(workers int) (*FusedProfile, error) {
	return d.fusedScanSel(nil, nil, workers)
}

// fusedKernels registers the fused suite's job and event kernels for the
// observation window [start, end) and the event selection (nil = all
// events), in the order fusedScanSel finishes them.
func (d *Dataset) fusedKernels(start, end time.Time, eventSel *bitmap.Bitmap) ([]JobKernel, []EventKernel) {
	jv := d.JobView()
	ev := d.EventView()
	tk := newTemporalJobKernel(start, end)
	jobKernels := []JobKernel{
		summaryKernel{},
		exitTallyKernel{},
		newJointKernel(d, DefaultJointOptions(), eventSel),
		newGroupKernel(ByUser, len(jv.Users)),
		newGroupKernel(ByProject, len(jv.Projects)),
		wasteKernel{},
		tk,
	}
	eventKernels := []EventKernel{
		&profileKernel{nCats: len(ev.Cats), nComps: len(ev.Comps)},
		&temporalEventKernel{monthCap: tk.monthCap},
		&localityKernel{level: machine.LevelMidplane},
		&localityKernel{level: machine.LevelRack},
	}
	return jobKernels, eventKernels
}

// fusedScanSel runs the fused suite over the given row selections (nil =
// all rows on that side); FusedScan is the whole corpus, FusedScanWhere a
// compiled cohort.
func (d *Dataset) fusedScanSel(jobSel, eventSel *bitmap.Bitmap, workers int) (*FusedProfile, error) {
	jv := d.JobView()
	ev := d.EventView()
	// The temporal kernel and Summary.Days depend on the observation span,
	// which for a cohort is the span NewDataset would derive from the
	// selected records — computed in a cheap pre-pass so day bins line up
	// exactly with a materialized dataset's.
	start, end := d.cohortSpan(jobSel, eventSel)
	jobKernels, eventKernels := d.fusedKernels(start, end, eventSel)
	jsts, err := scan.Run(jv, jv.N, jobSel, jobKernels, workers)
	if err != nil {
		return nil, err
	}
	ests, err := scan.Run(ev, ev.N, eventSel, eventKernels, workers)
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

// finishTemporal combines the job- and event-side temporal states into one
// profile. The month list is the job months in first-appearance order
// followed by event-only months, as a walk visiting jobs first and then
// FATAL events would find them.
func finishTemporal(js *temporalJobState, es *temporalEventState) *TemporalProfile {
	p := &TemporalProfile{
		JobsByHour:     js.jobsHour,
		FailsByHour:    js.failsHour,
		JobsByWeekday:  js.jobsWd,
		FailsByWeekday: js.failsWd,
		FatalByHour:    es.fatalHour,
		JobsByDay:      js.jobsDay,
	}
	idx := make(map[int32]int, len(js.months)+len(es.months))
	for i, ym := range js.months {
		idx[ym] = i
		p.Months = append(p.Months, ymLabel(ym))
		p.JobsByMonth = append(p.JobsByMonth, js.mJobs[i])
		p.FailsByMonth = append(p.FailsByMonth, js.mFails[i])
		p.FatalByMonth = append(p.FatalByMonth, 0)
	}
	for i, ym := range es.months {
		j, ok := idx[ym]
		if !ok {
			j = len(p.Months)
			idx[ym] = j
			p.Months = append(p.Months, ymLabel(ym))
			p.JobsByMonth = append(p.JobsByMonth, 0)
			p.FailsByMonth = append(p.FailsByMonth, 0)
			p.FatalByMonth = append(p.FatalByMonth, 0)
		}
		p.FatalByMonth[j] += es.mFatals[i]
	}
	return p
}

// interruptsFromGroups computes the E15 interruption-vs-consumption
// correlation from per-user aggregates (system attribution already folded
// into SystemFails).
func interruptsFromGroups(userGroups []GroupStats) (*InterruptCorrelation, error) {
	if len(userGroups) < 3 {
		return nil, fmt.Errorf("core: need ≥3 users, have %d", len(userGroups))
	}
	sorted := append([]GroupStats(nil), userGroups...)
	sortGroupsByKey(sorted)
	ch := make([]float64, len(sorted))
	jobs := make([]float64, len(sorted))
	ints := make([]float64, len(sorted))
	for i := range sorted {
		ch[i] = sorted[i].CoreHours
		jobs[i] = float64(sorted[i].Jobs)
		ints[i] = float64(sorted[i].SystemFails)
	}
	return interruptCorrelationFrom(ch, jobs, ints)
}
