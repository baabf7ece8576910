package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/machine"
)

// This file is the experiments-side face of the fused scan engine: every
// accessor serves the hot whole-corpus aggregates (E1/E2/E4/E7/E9/E10/E14/
// E15/E16/E18/E19/E21) from the Dataset's memoized core.FusedScan profile
// or from its memoized incident streams and MTTI result. The reference
// walks these accessors are tested against live in internal/oracle.

// fusedProfile returns the Dataset's memoized whole-corpus profile, scanned
// once over at most e.Parallelism workers no matter how many experiments
// (or workers, or Takeaways) request it.
func (e *Env) fusedProfile() (*core.FusedProfile, error) { return e.D.CorpusProfile(e.Parallelism) }

// Summary returns the Table-I dataset summary (E1).
func (e *Env) Summary() (core.Summary, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return core.Summary{}, err
	}
	return p.Summary, nil
}

// ExitTally returns the exit-status-only failure tally (E4/E19 and the
// family tables).
func (e *Env) ExitTally() (core.FailTally, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return core.FailTally{}, err
	}
	return p.Exit, nil
}

// JointTally returns the RAS-correlated failure tally under
// core.DefaultJointOptions (E4).
func (e *Env) JointTally() (core.FailTally, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return core.FailTally{}, err
	}
	return p.Joint, nil
}

// Groups returns the per-user or per-project aggregates, jobs descending
// (E2/E7), with system attribution from the exit-status classification.
func (e *Env) Groups(by core.GroupBy) ([]core.GroupStats, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return nil, err
	}
	return p.Groups(by), nil
}

// Concentration returns the concentration/correlation profile for the
// grouping (E2/E7), memoized on the Dataset per grouping (shared,
// read-only). The profile is built first so its scan honours Parallelism.
func (e *Env) Concentration(by core.GroupBy) (*core.ConcentrationResult, error) {
	if _, err := e.fusedProfile(); err != nil {
		return nil, err
	}
	return e.D.Concentration(by)
}

// Temporal returns the hour/weekday/month activity profile (E14).
func (e *Env) Temporal() (*core.TemporalProfile, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return nil, err
	}
	return p.Temporal, nil
}

// RASProfile returns the severity/category/component composition (E9).
func (e *Env) RASProfile() (*core.CategoryProfile, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return nil, err
	}
	return p.RAS, nil
}

// Waste returns the wasted core-hours breakdown under the exit-status
// classification (E19).
func (e *Env) Waste() (*core.WasteResult, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return nil, err
	}
	return p.Waste, nil
}

// Interrupts returns the interruptions-vs-consumption correlation (E15).
func (e *Env) Interrupts() (*core.InterruptCorrelation, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return nil, err
	}
	return p.Interrupts, p.InterruptsErr
}

// Locality returns the FATAL spatial-concentration profile at the level
// (E10); only rack and midplane are defined.
func (e *Env) Locality(level machine.Level) (*core.LocalityResult, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return nil, err
	}
	return p.Locality(level)
}

// FatalIncidents returns the default-rule filtered FATAL incident stream,
// memoized on the Dataset (E16/E21 share it; shared, read-only).
func (e *Env) FatalIncidents() ([]core.Incident, error) {
	return e.D.FilterFatal(core.DefaultFilterRule())
}

// WarnIncidents returns the default-rule filtered WARN burst stream,
// memoized on the Dataset (shared, read-only).
func (e *Env) WarnIncidents() ([]core.Incident, error) {
	return e.D.FilterWarn(core.DefaultFilterRule())
}

// LeadTimes evaluates the WARN→FATAL precursor analysis for several
// lookbacks (E16): the filtering and location indexing happen once via
// core.LeadTimeSweep over the memoized incident streams.
func (e *Env) LeadTimes(lookbacks []time.Duration) ([]*core.LeadTimeResult, error) {
	opts := make([]core.LeadTimeOptions, len(lookbacks))
	for i, lb := range lookbacks {
		opts[i] = core.DefaultLeadTimeOptions()
		opts[i].Lookback = lb
	}
	fatals, err := e.FatalIncidents()
	if err != nil {
		return nil, err
	}
	warns, err := e.WarnIncidents()
	if err != nil {
		return nil, err
	}
	return core.LeadTimeSweep(fatals, warns, opts)
}

// LifePhases returns the n-phase reliability trajectory (E18), reusing the
// memoized default-rule MTTI.
func (e *Env) LifePhases(n int) ([]core.LifePhase, error) {
	mtti, err := e.MTTI()
	if err != nil {
		return nil, err
	}
	return e.D.LifePhasesFromMTTI(n, mtti)
}

// SpatialCorr returns the torus spatial-correlation result for one time
// window (E21), reusing the memoized incident stream.
func (e *Env) SpatialCorr(window time.Duration) (*core.SpatialCorrResult, error) {
	incidents, err := e.FatalIncidents()
	if err != nil {
		return nil, err
	}
	return core.SpatialCorrelationIncidents(incidents, window)
}
