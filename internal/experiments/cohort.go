package experiments

import (
	"repro/internal/core"
	"repro/internal/sel"
)

// This file is the experiments-side face of the selection layer: cohort
// profiles — the full fused analysis suite restricted to the jobs and
// events a -where predicate selects — memoized per environment under the
// predicate's canonical form, so repeated queries (a report re-rendering a
// cohort, a sweep revisiting a user) cost one scan.

// CohortProfile parses a -where expression and returns the fused profile
// of the cohort it selects (see core.FusedScanWhere and DESIGN.md §14).
func (e *Env) CohortProfile(where string) (*core.FusedProfile, error) {
	expr, err := sel.Parse(where)
	if err != nil {
		return nil, err
	}
	return e.CohortProfileExpr(expr)
}

// UserProfile returns the cohort profile of one user's jobs.
func (e *Env) UserProfile(user string) (*core.FusedProfile, error) {
	return e.CohortProfileExpr(sel.Eq{Col: "user", Val: user})
}

// ProjectProfile returns the cohort profile of one project's jobs.
func (e *Env) ProjectProfile(project string) (*core.FusedProfile, error) {
	return e.CohortProfileExpr(sel.Eq{Col: "project", Val: project})
}

// CohortProfileExpr is CohortProfile for an already-parsed predicate. A nil
// predicate is the whole corpus — the shared FusedScan profile. Other
// cohorts push the predicate down into core.FusedScanWhere and are cached
// under the predicate's canonical String(), so syntactic variants of one
// selection ("a and b" vs "(a) && b") share an entry.
func (e *Env) CohortProfileExpr(expr sel.Expr) (*core.FusedProfile, error) {
	if expr == nil {
		return e.fusedProfile()
	}
	c := &e.cache
	key := expr.String()
	// The lock covers the scan itself: concurrent requests for distinct
	// cohorts serialize, which keeps the cache a plain map and matches how
	// the CLI and report paths issue queries (one at a time).
	c.cohortMu.Lock()
	defer c.cohortMu.Unlock()
	if p, ok := c.cohorts[key]; ok {
		return p, nil
	}
	p, err := e.D.FusedScanWhere(expr, e.Parallelism)
	if err != nil {
		return nil, err
	}
	if c.cohorts == nil {
		c.cohorts = make(map[string]*core.FusedProfile)
	}
	c.cohorts[key] = p
	return p, nil
}
