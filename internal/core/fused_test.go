package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/scan"
)

// TestFilterCachedMatchesPlain pins Dataset.FilterFatal/FilterWarn —
// interned keys cached on the first call for the default key
// configuration — to the map-based reference pass: identical incidents on
// the first and a repeated call, at several windows, for both severities,
// for a non-default key configuration (interned per call), and the same
// rejection of an invalid rule.
func TestFilterCachedMatchesPlain(t *testing.T) {
	// A private dataset, so the first call below is the one that interns
	// the keys: other tests fill the shared dataset's cache.
	_, c := dataset(t)
	d, err := NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		t.Fatal(err)
	}
	odd := FilterRule{Window: 20 * time.Minute, Spatial: machine.LevelRack}
	var rules []FilterRule
	for _, window := range []time.Duration{time.Minute, 20 * time.Minute, 2 * time.Hour} {
		rule := DefaultFilterRule()
		rule.Window = window
		rules = append(rules, rule)
	}
	rules = append(rules, odd)
	for _, sev := range []struct {
		name   string
		sev    raslog.Severity
		filter func(FilterRule) ([]Incident, error)
	}{
		{"fatal", raslog.Fatal, d.FilterFatal},
		{"warn", raslog.Warn, d.FilterWarn},
	} {
		for _, rule := range rules {
			want, err := referenceFilterBySeverity(d.Events, sev.sev, rule)
			if err != nil {
				t.Fatal(err)
			}
			for _, call := range []string{"first", "repeated"} {
				got, err := sev.filter(rule)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s rule %+v, %s call: %d incidents, reference %d (or contents differ)",
						sev.name, rule, call, len(got), len(want))
				}
			}
		}
		if _, err := sev.filter(FilterRule{Window: -1}); err == nil {
			t.Errorf("%s: invalid rule accepted", sev.name)
		}
	}
}

// TestViewBuildersMatchDataset pins the SoA mirrors to the AoS records they
// shadow, column by column, on a few spot rows plus the dictionaries.
func TestViewBuildersMatchDataset(t *testing.T) {
	d, _ := dataset(t)
	jv := d.JobView()
	if jv.N != len(d.Jobs) {
		t.Fatalf("job view has %d rows for %d jobs", jv.N, len(d.Jobs))
	}
	for _, i := range []int{0, 1, jv.N / 2, jv.N - 1} {
		j := &d.Jobs[i]
		if jv.ID[i] != j.ID || jv.StartUnix[i] != j.Start.Unix() || jv.EndUnix[i] != j.End.Unix() {
			t.Fatalf("row %d: id/time columns mismatch", i)
		}
		if jv.CoreSec[i] != j.CoreSeconds() {
			t.Fatalf("row %d: core-seconds %d, job says %d", i, jv.CoreSec[i], j.CoreSeconds())
		}
		if jv.Users[jv.UserID[i]] != j.User || jv.Projects[jv.ProjectID[i]] != j.Project {
			t.Fatalf("row %d: dictionary mismatch", i)
		}
	}
	ev := d.EventView()
	if ev.N != len(d.Events) {
		t.Fatalf("event view has %d rows for %d events", ev.N, len(d.Events))
	}
	for _, i := range []int{0, 1, ev.N / 2, ev.N - 1} {
		e := &d.Events[i]
		if ev.TimeUnix[i] != e.Time.Unix() || ev.Sev[i] != uint8(e.Sev) {
			t.Fatalf("event row %d: time/sev mismatch", i)
		}
		if string(ev.Cats[ev.CatID[i]]) != string(e.Cat) || string(ev.Comps[ev.CompID[i]]) != string(e.Comp) {
			t.Fatalf("event row %d: dictionary mismatch", i)
		}
		wantMid, wantRack := LocIDs(e.Loc)
		if ev.MidplaneID[i] != wantMid || ev.RackID[i] != wantRack {
			t.Fatalf("event row %d: location ids (%d,%d), want (%d,%d)",
				i, ev.MidplaneID[i], ev.RackID[i], wantMid, wantRack)
		}
	}
	// AdoptViews rejects mismatched row counts and is a no-op after the
	// lazy build.
	if err := d.AdoptViews(&scan.JobView{N: jv.N + 1}, nil); err == nil {
		t.Error("adopt accepted wrong job row count")
	}
	if err := d.AdoptViews(&scan.JobView{N: jv.N}, nil); err != nil {
		t.Errorf("late adopt errored: %v", err)
	}
	if d.JobView() != jv {
		t.Error("late adopt replaced the built view")
	}
}

// TestKernelProcessBlockAllocFree pins the steady-state scan loops as
// allocation-free: after the warm-up pass, processing further blocks must
// not allocate for any registered kernel.
func TestKernelProcessBlockAllocFree(t *testing.T) {
	d, _ := dataset(t)
	jv := d.JobView()
	ev := d.EventView()
	start, end := d.Span()
	jobKernels, eventKernels := d.fusedKernels(start, end, nil)
	blk := scan.BlockRows
	for _, k := range jobKernels {
		st := k.NewState()
		hi := min(blk, jv.N)
		if avg := testing.AllocsPerRun(20, func() { st.ProcessBlock(jv, 0, hi) }); avg != 0 {
			t.Errorf("job kernel %s: %.1f allocs per block", k.Name(), avg)
		}
	}
	for _, k := range eventKernels {
		st := k.NewState()
		hi := min(blk, ev.N)
		if avg := testing.AllocsPerRun(20, func() { st.ProcessBlock(ev, 0, hi) }); avg != 0 {
			t.Errorf("event kernel %s: %.1f allocs per block", k.Name(), avg)
		}
	}
}
