package core_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/sel"
)

// The tests in this file pin core's production analyses to the reference
// walks in internal/oracle. They live in the external test package because
// oracle imports core.

// TestFusedScanMatchesLegacy pins the fused engine to the reference: every
// aggregate the single-pass engine produces deep-equals the dedicated
// per-analysis oracle walk, at any worker count.
func TestFusedScanMatchesLegacy(t *testing.T) {
	d, _ := core.SharedDataset(t)
	cls := oracle.ClassifyByExit(d)
	joint := oracle.ClassifyJoint(d, core.DefaultJointOptions())
	for _, workers := range []int{1, 4} {
		p, err := d.FusedScan(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := p.Summary, oracle.Summarize(d); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: summary: fused %+v, oracle %+v", workers, got, want)
		}
		if got, want := p.Exit, oracle.TallyOf(cls); got != want {
			t.Errorf("workers=%d: exit tally: fused %+v, oracle %+v", workers, got, want)
		}
		if got, want := p.Joint, oracle.TallyOf(joint); got != want {
			t.Errorf("workers=%d: joint tally: fused %+v, oracle %+v", workers, got, want)
		}
		for _, by := range []core.GroupBy{core.ByUser, core.ByProject} {
			if got, want := p.Groups(by), oracle.Aggregate(d, by, cls); !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: groups by %s differ", workers, by)
			}
			got, err := p.Concentration(by)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Concentration(d, by, cls)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: concentration by %s: fused %+v, oracle %+v", workers, by, got, want)
			}
		}
		if got, want := p.Temporal, oracle.Temporal(d); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: temporal profile differs", workers)
		}
		if got, want := p.RAS, oracle.Profile(d); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: RAS profile differs", workers)
		}
		if got, want := p.Waste, oracle.Waste(d, cls); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: waste: fused %+v, oracle %+v", workers, got, want)
		}
		{
			got, gotErr := p.Interrupts, p.InterruptsErr
			want, wantErr := oracle.InterruptsByUser(d, cls)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("workers=%d: interrupts err: fused %v, oracle %v", workers, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: interrupts: fused %+v, oracle %+v", workers, got, want)
			}
		}
		for _, level := range []machine.Level{machine.LevelMidplane, machine.LevelRack, machine.LevelNode} {
			got, gotErr := p.Locality(level)
			want, wantErr := oracle.Locality(d, level)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("workers=%d: locality %v err: fused %v, oracle %v", workers, level, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: locality at %v differs", workers, level)
			}
		}
	}
}

// TestFusedScanWhereEquivalence is the pushdown acceptance suite: for
// every predicate, FusedScanWhere must reproduce a FusedScan over the
// oracle's materialized cohort exactly, and must itself be identical
// across worker counts.
func TestFusedScanWhereEquivalence(t *testing.T) {
	d, _ := core.SharedDataset(t)
	for _, where := range core.EquivalencePredicates(t, d) {
		e, err := sel.Parse(where)
		if err != nil {
			t.Fatalf("parse %q: %v", where, err)
		}
		md, err := oracle.MaterializeWhere(d, e)
		if err != nil {
			t.Fatalf("materialize %q: %v", where, err)
		}
		want, err := md.FusedScan(4)
		if err != nil {
			t.Fatalf("reference scan %q: %v", where, err)
		}
		var first *core.FusedProfile
		for _, workers := range []int{1, 4, 8} {
			got, err := d.FusedScanWhere(e, workers)
			if err != nil {
				t.Fatalf("FusedScanWhere(%q, workers=%d): %v", where, workers, err)
			}
			core.ProfileFields(t, fmt.Sprintf("%q workers=%d vs materialized", where, workers), got, want)
			if first == nil {
				first = got
			} else {
				core.ProfileFields(t, fmt.Sprintf("%q workers=%d vs workers=1", where, workers), got, first)
			}
		}
	}
}

// TestLeadTimeSweepMatchesLeadTime pins the E16 sweep: evaluating several
// lookbacks over one cached-key filtering pass matches the oracle's
// per-lookback re-filtering exactly.
func TestLeadTimeSweepMatchesLeadTime(t *testing.T) {
	d, _ := core.SharedDataset(t)
	rule := core.DefaultFilterRule()
	fatals, err := d.FilterFatal(rule)
	if err != nil {
		t.Fatal(err)
	}
	warns, err := d.FilterWarn(rule)
	if err != nil {
		t.Fatal(err)
	}
	lookbacks := []time.Duration{time.Hour, 6 * time.Hour, 12 * time.Hour, 24 * time.Hour}
	opts := make([]core.LeadTimeOptions, len(lookbacks))
	for i, lb := range lookbacks {
		opts[i] = core.DefaultLeadTimeOptions()
		opts[i].Lookback = lb
	}
	swept, err := core.LeadTimeSweep(fatals, warns, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, opt := range opts {
		want, err := oracle.LeadTime(d, rule, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(swept[i], want) {
			t.Errorf("lookback %v: sweep %+v, oracle %+v", lookbacks[i], swept[i], want)
		}
	}
	if _, err := core.LeadTimeSweep(fatals, warns, nil); err == nil {
		t.Error("empty option list accepted")
	}
	mixed := []core.LeadTimeOptions{
		{Lookback: time.Hour, Level: machine.LevelRack},
		{Lookback: time.Hour, Level: machine.LevelNode},
	}
	if _, err := core.LeadTimeSweep(fatals, warns, mixed); err == nil {
		t.Error("mixed spatial levels accepted")
	}
}

// TestLifePhasesFromMTTIMatchesOracle pins E18's reuse of one memoized
// MTTI result to the oracle, which re-filters per call.
func TestLifePhasesFromMTTIMatchesOracle(t *testing.T) {
	d, _ := core.SharedDataset(t)
	mtti, err := d.MTTI(core.DefaultFilterRule())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 6, 10} {
		got, err := d.LifePhasesFromMTTI(n, mtti)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.LifePhases(d, n, core.DefaultFilterRule())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: from MTTI %+v, oracle %+v", n, got, want)
		}
	}
}

// TestSpatialCorrelationIncidentsMatchesOracle pins E21's reuse of the
// cached-key incident stream to the oracle's fresh filtering pass.
func TestSpatialCorrelationIncidentsMatchesOracle(t *testing.T) {
	d, _ := core.SharedDataset(t)
	incidents, err := d.FilterFatal(core.DefaultFilterRule())
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []time.Duration{10 * time.Minute, time.Hour, 6 * time.Hour} {
		got, err := core.SpatialCorrelationIncidents(incidents, window)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.SpatialCorrelation(d, core.DefaultFilterRule(), window)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("window %v: from incidents %+v, oracle %+v", window, got, want)
		}
	}
}

// TestClassifyJointAgreesWithExit checks the oracle's two per-job
// classifications against each other and the generator's ground truth.
func TestClassifyJointAgreesWithExit(t *testing.T) {
	d, c := core.SharedDataset(t)
	exit := oracle.ClassifyByExit(d)
	joint := oracle.ClassifyJoint(d, core.DefaultJointOptions())
	if joint.Total != exit.Total || joint.Failed != exit.Failed {
		t.Fatalf("joint totals differ: %+v vs %+v", joint, exit)
	}
	// Joint must find every truth-killed job (they have attributed FATALs
	// or block-matching events at their end) and may add a few
	// coincidental matches (user failure near an idle-hardware event).
	if joint.SystemCause < c.Truth.SystemKilledJobs {
		t.Errorf("joint system %d < truth %d", joint.SystemCause, c.Truth.SystemKilledJobs)
	}
	extra := joint.SystemCause - c.Truth.SystemKilledJobs
	if float64(extra) > 0.02*float64(joint.Failed) {
		t.Errorf("joint over-attributes: %d extra of %d failed", extra, joint.Failed)
	}
	// Every exit-classified system job must be joint-classified system.
	for id, cause := range exit.Causes {
		if cause == oracle.CauseSystem && joint.Causes[id] != oracle.CauseSystem {
			t.Errorf("job %d: exit says system, joint says %v", id, joint.Causes[id])
		}
	}
	// The cause map partitions the job set.
	counts := map[oracle.Cause]int{}
	for _, cause := range exit.Causes {
		counts[cause]++
	}
	if counts[oracle.CauseNone]+counts[oracle.CauseUser]+counts[oracle.CauseSystem] != exit.Total {
		t.Error("causes do not partition jobs")
	}
}

func TestCauseString(t *testing.T) {
	for c, want := range map[oracle.Cause]string{
		oracle.CauseNone: "none", oracle.CauseUser: "user", oracle.CauseSystem: "system", oracle.Cause(9): "unknown",
	} {
		if c.String() != want {
			t.Errorf("Cause(%d) = %q", int(c), c.String())
		}
	}
}
