// Package oracle holds the reference implementations of mirafail's
// whole-corpus aggregates: the straightforward per-analysis walks over a
// core.Dataset that the fused scan engine replaced. Each walk is written
// against the exported Dataset API only, visits the records in their
// natural order and keeps its own map-based bookkeeping, so it shares no
// code path with the kernels it checks.
//
// The package is test-only by contract: the equivalence tests compare the
// production results (core.FusedScan, core.FusedScanWhere, the experiments
// environment's accessors) against these walks, and a guard test fails if
// any non-test file in the module imports it.
package oracle

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
)

// Summarize computes the Table-I dataset summary.
func Summarize(d *core.Dataset) core.Summary {
	s := core.Summary{
		Days:      d.Days(),
		Jobs:      len(d.Jobs),
		Tasks:     len(d.Tasks),
		IORecords: len(d.IO),
		RASTotal:  len(d.Events),
	}
	users := map[string]bool{}
	projects := map[string]bool{}
	// Core-hours accumulate as exact integer core-seconds (see
	// joblog.Job.CoreSeconds), so the total is independent of summation
	// order.
	var coreSec int64
	for i := range d.Jobs {
		j := &d.Jobs[i]
		users[j.User] = true
		projects[j.Project] = true
		coreSec += j.CoreSeconds()
		if j.Outcome() == joblog.OutcomeSuccess {
			s.SuccessJobs++
		} else {
			s.FailedJobs++
		}
	}
	s.CoreHours = float64(coreSec) / 3600
	s.Users = len(users)
	s.Projects = len(projects)
	for i := range d.Events {
		switch d.Events[i].Sev {
		case raslog.Fatal:
			s.RASFatal++
		case raslog.Warn:
			s.RASWarn++
		default:
			s.RASInfo++
		}
	}
	return s
}

// Cause is the root-cause class of a job failure.
type Cause int

// Causes of job failure.
const (
	CauseNone   Cause = iota // job succeeded
	CauseUser                // bug, misconfiguration, misoperation
	CauseSystem              // hardware/system event interrupted the job
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseUser:
		return "user"
	case CauseSystem:
		return "system"
	default:
		return "unknown"
	}
}

// Classification is the per-job outcome attribution plus corpus totals.
type Classification struct {
	Causes      map[int64]Cause // job id → cause
	Total       int
	Failed      int
	UserCaused  int
	SystemCause int
	// ByFamily counts failed jobs per exit family.
	ByFamily map[joblog.ExitFamily]int
}

// UserShare returns the fraction of failures attributed to user behavior.
func (c *Classification) UserShare() float64 {
	if c.Failed == 0 {
		return 0
	}
	return float64(c.UserCaused) / float64(c.Failed)
}

// classify walks the jobs once, attributing each failure to the system
// when isSystem says so and to the user otherwise.
func classify(d *core.Dataset, isSystem func(j *joblog.Job) bool) *Classification {
	c := &Classification{
		Causes:   make(map[int64]Cause, len(d.Jobs)),
		ByFamily: make(map[joblog.ExitFamily]int),
	}
	for i := range d.Jobs {
		j := &d.Jobs[i]
		c.Total++
		if j.Outcome() == joblog.OutcomeSuccess {
			c.Causes[j.ID] = CauseNone
			continue
		}
		c.Failed++
		c.ByFamily[joblog.Family(j.ExitStatus)]++
		if isSystem(j) {
			c.Causes[j.ID] = CauseSystem
			c.SystemCause++
		} else {
			c.Causes[j.ID] = CauseUser
			c.UserCaused++
		}
	}
	return c
}

// ClassifyByExit attributes each failed job by its exit status alone:
// scheduler-reserved statuses are system-caused, everything else
// user-caused.
func ClassifyByExit(d *core.Dataset) *Classification {
	return classify(d, func(j *joblog.Job) bool {
		return joblog.Family(j.ExitStatus) == joblog.FamilySystem
	})
}

// ClassifyJoint attributes failures by joining the scheduling log with the
// RAS log: a failed job is system-caused if a FATAL event names it or
// strikes a block its tasks occupied within opt.Tolerance of its end.
// FATAL events without a location at rack level or below cannot be tied to
// a block and only count through the job id.
func ClassifyJoint(d *core.Dataset, opt core.JointOptions) *Classification {
	if opt.Tolerance <= 0 {
		opt = core.DefaultJointOptions()
	}
	var fatals []raslog.Event
	attributed := map[int64]bool{}
	for i := range d.Events {
		e := &d.Events[i]
		if e.Sev != raslog.Fatal {
			continue
		}
		if e.JobID != 0 {
			attributed[e.JobID] = true
		}
		if e.Loc.Level() >= machine.LevelRack {
			fatals = append(fatals, *e)
		}
	}
	tol := opt.Tolerance
	return classify(d, func(j *joblog.Job) bool {
		if attributed[j.ID] {
			return true
		}
		tasks := d.TasksOf(j.ID)
		lo := sort.Search(len(fatals), func(i int) bool { return !fatals[i].Time.Before(j.End.Add(-tol)) })
		for i := lo; i < len(fatals) && !fatals[i].Time.After(j.End.Add(tol)); i++ {
			for k := range tasks {
				if tasks[k].Block.ContainsLocation(fatals[i].Loc) {
					return true
				}
			}
		}
		return false
	})
}

// TallyOf flattens a Classification into the fused engine's FailTally.
func TallyOf(c *Classification) core.FailTally {
	t := core.FailTally{
		Total:       c.Total,
		Failed:      c.Failed,
		UserCaused:  c.UserCaused,
		SystemCause: c.SystemCause,
	}
	for _, f := range joblog.FailureFamilies() {
		t.ByFamily[joblog.FamilyCode(f)] = c.ByFamily[f]
	}
	return t
}

// LeadTime filters the FATAL and WARN streams with the rule (no cached
// keys or incidents) and evaluates the precursor analysis for one lookback
// option.
func LeadTime(d *core.Dataset, rule core.FilterRule, opt core.LeadTimeOptions) (*core.LeadTimeResult, error) {
	fatals, err := core.FilterBySeverity(d.Events, raslog.Fatal, rule)
	if err != nil {
		return nil, err
	}
	warns, err := core.FilterBySeverity(d.Events, raslog.Warn, rule)
	if err != nil {
		return nil, err
	}
	rs, err := core.LeadTimeSweep(fatals, warns, []core.LeadTimeOptions{opt})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// LifePhases runs the MTTI analysis under the rule (the Dataset memoizes
// the default rule's) and splits the observation window into n phases.
func LifePhases(d *core.Dataset, n int, rule core.FilterRule) ([]core.LifePhase, error) {
	mtti, err := d.MTTI(rule)
	if err != nil {
		return nil, err
	}
	return d.LifePhasesFromMTTI(n, mtti)
}

// SpatialCorrelation filters the FATAL stream with the rule (no cached
// keys or incidents) and runs the torus-correlation analysis for one
// window.
func SpatialCorrelation(d *core.Dataset, rule core.FilterRule, window time.Duration) (*core.SpatialCorrResult, error) {
	incidents, err := core.FilterBySeverity(d.Events, raslog.Fatal, rule)
	if err != nil {
		return nil, err
	}
	return core.SpatialCorrelationIncidents(incidents, window)
}
