package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/machine"
	"repro/internal/sel"
)

// equivalencePredicates builds the suite of -where expressions the
// pushdown contract is verified against, drawing concrete values (users,
// categories, time windows) from the dataset so every shape selects a
// meaningful cohort.
func equivalencePredicates(t *testing.T, d *Dataset) []string {
	t.Helper()
	jv, ev := d.JobView(), d.EventView()
	start, end := d.Span()
	mid := start.Add(end.Sub(start) / 2)
	day := func(ti interface{ Format(string) string }) string { return ti.Format("2006-01-02") }
	preds := []string{
		// Dictionary equality and disjunction on the job side.
		fmt.Sprintf("user == %s", jv.Users[0]),
		fmt.Sprintf("user == %s or project == %s", jv.Users[1], jv.Projects[0]),
		fmt.Sprintf("user in (%s, %s, %s)", jv.Users[0], jv.Users[2], jv.Users[3]),
		// Exit-family index, including negation against the universe.
		"exit == system",
		"exit in (killed, segfault)",
		"not exit == success",
		// Numeric column scans.
		"nodes >= 1024",
		"dur > 3600 and nodes < 4096",
		// Submit-time day buckets (sub-month window with ragged edges).
		fmt.Sprintf("submit >= %s and submit < %s", day(start.AddDate(0, 0, 10)), day(start.AddDate(0, 0, 41))),
		// Event-side selections: severity, category dictionary, time range.
		"sev == FATAL",
		fmt.Sprintf("cat == %s", ev.Cats[0]),
		fmt.Sprintf("sev != INFO and time < %s", day(mid)),
		// Spatial index (may select few or no events — both legal).
		"midplane == R00-M0 or rack == R01",
		// Mixed job+event cohort via top-level conjunction.
		fmt.Sprintf("project == %s and sev == FATAL", jv.Projects[1]),
		fmt.Sprintf("submit >= %s and time >= %s and exit != success",
			day(start.AddDate(0, 1, 0)), day(start.AddDate(0, 1, 0))),
	}
	return preds
}

// profileFields compares every exported aggregate of two fused profiles.
func profileFields(t *testing.T, label string, got, want *FusedProfile) {
	t.Helper()
	cmp := func(name string, g, w interface{}) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: %s differs:\n  got  %+v\n  want %+v", label, name, g, w)
		}
	}
	cmp("Summary", got.Summary, want.Summary)
	cmp("Exit", got.Exit, want.Exit)
	cmp("Joint", got.Joint, want.Joint)
	cmp("UserGroups", got.UserGroups, want.UserGroups)
	cmp("ProjectGroups", got.ProjectGroups, want.ProjectGroups)
	cmp("Temporal", got.Temporal, want.Temporal)
	cmp("RAS", got.RAS, want.RAS)
	cmp("Waste", got.Waste, want.Waste)
	cmp("Interrupts", got.Interrupts, want.Interrupts)
	cmp("InterruptsErr", fmt.Sprint(got.InterruptsErr), fmt.Sprint(want.InterruptsErr))
	for _, level := range []machine.Level{machine.LevelMidplane, machine.LevelRack} {
		g, gErr := got.Locality(level)
		w, wErr := want.Locality(level)
		cmp("Locality("+level.String()+")", g, w)
		cmp("Locality("+level.String()+") err", fmt.Sprint(gErr), fmt.Sprint(wErr))
	}
	for _, by := range []GroupBy{ByUser, ByProject} {
		g, gErr := got.Concentration(by)
		w, wErr := want.Concentration(by)
		cmp("Concentration("+by.String()+")", g, w)
		cmp("Concentration("+by.String()+") err", fmt.Sprint(gErr), fmt.Sprint(wErr))
	}
}

// TestFusedScanWhereNilPredicate pins the degenerate path: no predicate
// means the plain whole-corpus FusedScan.
func TestFusedScanWhereNilPredicate(t *testing.T) {
	d, _ := dataset(t)
	want, err := d.FusedScan(4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.FusedScanWhere(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	profileFields(t, "nil predicate", got, want)
}

// TestFusedScanFullSelectionMatchesWholeCorpus pins the nil-selection
// shortcuts of the one fused body — the dataset's own span, lengths and
// severity counts — to the cohort math: all-set job and event bitmaps give
// the same profile as FusedScan's nil selections.
func TestFusedScanFullSelectionMatchesWholeCorpus(t *testing.T) {
	d, _ := dataset(t)
	want, err := d.FusedScan(4)
	if err != nil {
		t.Fatal(err)
	}
	allJobs, allEvents := bitmap.New(), bitmap.New()
	allJobs.AddRange(0, uint32(len(d.Jobs)))
	allEvents.AddRange(0, uint32(len(d.Events)))
	for _, workers := range []int{1, 4} {
		got, err := d.fusedScanSel(allJobs, allEvents, workers)
		if err != nil {
			t.Fatal(err)
		}
		profileFields(t, fmt.Sprintf("all-rows selections, workers=%d", workers), got, want)
	}
}

// TestSelectionCacheReuse checks repeated queries hand back the same
// compiled bitmap (the warm path the cohort accessors rely on).
func TestSelectionCacheReuse(t *testing.T) {
	d, _ := dataset(t)
	e, err := sel.Parse("exit == system or nodes >= 2048")
	if err != nil {
		t.Fatal(err)
	}
	b1, err := d.SelectJobs(e)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := d.SelectJobs(e)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("compiled selection was not cached")
	}
	if b1.IsEmpty() {
		t.Error("predicate selected no jobs in the 90-day corpus")
	}
}

// TestCompileWhereErrors pins the compiler's error surface.
func TestCompileWhereErrors(t *testing.T) {
	d, _ := dataset(t)
	for _, bad := range []string{
		"bogus == 1",                   // unknown column
		"user == u000 or sev == FATAL", // cross-domain disjunct
		"sev == BOGUS",                 // bad severity
		"nodes >= abc",                 // bad number
		"midplane == R00",              // rack given for midplane column
		"rack == R00-M0",               // midplane given for rack column
		"submit >= notadate",           // bad timestamp
		"user < u100",                  // dictionary column has no order
	} {
		e, err := sel.Parse(bad)
		if err != nil {
			t.Fatalf("parse %q: %v", bad, err)
		}
		if _, _, err := d.CompileWhere(e); err == nil {
			t.Errorf("CompileWhere(%q) succeeded, want error", bad)
		}
	}
}

// TestSelectEventsMatchesSweep cross-checks a few index-served selections
// against a naive row sweep.
func TestSelectEventsMatchesSweep(t *testing.T) {
	d, _ := dataset(t)
	ev := d.EventView()
	e, err := sel.Parse("sev == FATAL or sev == WARN")
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.SelectEvents(e)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 0; i < ev.N; i++ {
		want := ev.Sev[i] == 2 || ev.Sev[i] == 3
		if got := b.Contains(uint32(i)); got != want {
			t.Fatalf("event %d: selected=%v, want %v", i, got, want)
		}
		if want {
			n++
		}
	}
	if b.Cardinality() != n {
		t.Errorf("cardinality %d, want %d", b.Cardinality(), n)
	}
}

func TestIndexStats(t *testing.T) {
	d, _ := dataset(t)
	stats := d.IndexStats()
	byCol := map[string]IndexStat{}
	for _, s := range stats {
		byCol[s.Domain+"."+s.Column] = s
	}
	jv, ev := d.JobView(), d.EventView()
	if s := byCol["job.user"]; s.Keys != len(jv.Users) || s.Rows != jv.N {
		t.Errorf("job.user stat = %+v, want %d keys covering %d rows", s, len(jv.Users), jv.N)
	}
	if s := byCol["event.sev"]; s.Rows != ev.N {
		t.Errorf("event.sev stat = %+v, want %d rows", s, ev.N)
	}
	for _, s := range stats {
		if s.Rows > 0 && s.Bytes == 0 {
			t.Errorf("%s.%s: %d rows but zero compressed bytes", s.Domain, s.Column, s.Rows)
		}
	}
}
