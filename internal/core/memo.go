package core

import "sync"

// lazy is one memoized analysis result: the first get computes it, every
// later (or concurrent) get returns the same value and error.
type lazy[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (l *lazy[T]) get(compute func() (T, error)) (T, error) {
	l.once.Do(func() { l.v, l.err = compute() })
	return l.v, l.err
}

// analysisMemo holds the whole-corpus analyses that several consumers
// share — the E1–E23 suite, Takeaways and the serving daemon — so each is
// computed at most once per Dataset. Every memoized result is shared and
// read-only: callers must not modify it or anything it points to. The
// analyses a consumer parameterizes differently (a non-default filter
// rule, an unknown structure dimension) bypass the memo and compute fresh.
type analysisMemo struct {
	profile   lazy[*FusedProfile]
	conc      [2]lazy[*ConcentrationResult] // ByUser, ByProject
	mtti      lazy[*MTTIResult]             // DefaultFilterRule
	fatalInc  lazy[[]Incident]              // DefaultFilterRule
	warnInc   lazy[[]Incident]              // DefaultFilterRule
	structure [4]lazy[*StructureResult]     // DimNodes … DimRuntime
	io        lazy[*IOCorrelation]
	cdfs      lazy[[2][]float64] // succeeded, failed
	avail     lazy[*AvailabilityResult]
	surv      lazy[*SurvivalResult]
}

// CorpusProfile returns the whole-corpus fused profile, computed once per
// Dataset by FusedScan over at most workers goroutines (≤ 0 means
// GOMAXPROCS); the worker bound of the first call is the one used, and the
// profile is bit-identical at any bound. The profile is shared and
// read-only. FusedScan stays the uncached primitive: it scans on every
// call.
func (d *Dataset) CorpusProfile(workers int) (*FusedProfile, error) {
	return d.memo.profile.get(func() (*FusedProfile, error) { return d.FusedScan(workers) })
}

// Concentration returns the whole-corpus concentration/correlation profile
// for the grouping, computed once per Dataset and grouping from
// CorpusProfile (scanning with GOMAXPROCS workers if the profile is not
// built yet). The result is shared and read-only.
func (d *Dataset) Concentration(by GroupBy) (*ConcentrationResult, error) {
	compute := func() (*ConcentrationResult, error) {
		p, err := d.CorpusProfile(0)
		if err != nil {
			return nil, err
		}
		return p.Concentration(by)
	}
	if by != ByUser && by != ByProject {
		return compute()
	}
	return d.memo.conc[by-ByUser].get(compute)
}
