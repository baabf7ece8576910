package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/oracle"
	"repro/internal/sel"
)

func mustParse(t *testing.T, where string) sel.Expr {
	t.Helper()
	e, err := sel.Parse(where)
	if err != nil {
		t.Fatalf("parse %q: %v", where, err)
	}
	return e
}

// TestCohortProfileMatchesCore checks the accessor is a cached façade over
// core.FusedScanWhere: same numbers, and the second request returns the
// same profile pointer.
func TestCohortProfileMatchesCore(t *testing.T) {
	e := env(t)
	user := e.D.JobView().Users[0]
	where := fmt.Sprintf("user == %s", user)

	p1, err := e.CohortProfile(where)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.D.FusedScanWhere(mustParse(t, where), e.Parallelism)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.Summary, want.Summary) {
		t.Errorf("Summary differs:\n  got  %+v\n  want %+v", p1.Summary, want.Summary)
	}
	if p1.Summary.Jobs == 0 {
		t.Errorf("cohort %q selected no jobs", where)
	}

	// Warm path: same canonical predicate (different surface syntax) must
	// hand back the identical cached profile.
	p2, err := e.CohortProfile(fmt.Sprintf("(user == %q)", user))
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("cohort profile was not cached under the canonical form")
	}
}

// TestUserProjectProfileHelpers checks the Eq shorthands agree with the
// textual predicates they stand for.
func TestUserProjectProfileHelpers(t *testing.T) {
	e := env(t)
	jv := e.D.JobView()

	up, err := e.UserProfile(jv.Users[1])
	if err != nil {
		t.Fatal(err)
	}
	uw, err := e.CohortProfile(fmt.Sprintf("user == %s", jv.Users[1]))
	if err != nil {
		t.Fatal(err)
	}
	if up != uw {
		t.Error("UserProfile and the equivalent -where predicate did not share a cache entry")
	}

	pp, err := e.ProjectProfile(jv.Projects[0])
	if err != nil {
		t.Fatal(err)
	}
	if pp.Summary.Projects != 1 {
		t.Errorf("project cohort reports %d projects, want 1", pp.Summary.Projects)
	}
}

// TestCohortProfileNilAndErrors pins the degenerate paths: nil predicate
// serves the shared whole-corpus profile; a bad predicate reports the
// parse or compile error.
func TestCohortProfileNilAndErrors(t *testing.T) {
	e := env(t)
	p, err := e.CohortProfileExpr(nil)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := e.fusedProfile()
	if err != nil {
		t.Fatal(err)
	}
	if p != whole {
		t.Error("nil predicate did not serve the shared FusedScan profile")
	}
	if _, err := e.CohortProfile("user =="); err == nil {
		t.Error("syntax error was not reported")
	}
	if _, err := e.CohortProfile("bogus == 1"); err == nil {
		t.Error("unknown column was not reported")
	}
}

// TestCohortProfileLegacyEquivalence checks the pushdown cohort profile
// against a full scan of the oracle's materialized cohort — the
// experiments-level mirror of the core equivalence suite.
func TestCohortProfileLegacyEquivalence(t *testing.T) {
	e := env(t)
	for _, where := range []string{
		"exit != success and nodes >= 1024",
		"sev == FATAL",
	} {
		got, err := e.CohortProfile(where)
		if err != nil {
			t.Fatal(err)
		}
		md, err := oracle.MaterializeWhere(e.D, mustParse(t, where))
		if err != nil {
			t.Fatal(err)
		}
		want, err := md.FusedScan(e.Parallelism)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Summary, want.Summary) {
			t.Errorf("%q: Summary differs:\n  got  %+v\n  want %+v", where, got.Summary, want.Summary)
		}
		if !reflect.DeepEqual(got.Exit, want.Exit) {
			t.Errorf("%q: Exit tally differs", where)
		}
	}
}
