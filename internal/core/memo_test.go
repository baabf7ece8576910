package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/raslog"
)

// memoized lists every memoized accessor with the uncached computation
// behind it.
func memoized(d *Dataset) map[string]struct{ cached, direct func() (interface{}, error) } {
	type pair = struct{ cached, direct func() (interface{}, error) }
	rule := DefaultFilterRule()
	m := map[string]pair{
		"profile": {
			func() (interface{}, error) { return d.CorpusProfile(0) },
			func() (interface{}, error) { return d.FusedScan(0) },
		},
		"mtti": {
			func() (interface{}, error) { return d.MTTI(rule) },
			func() (interface{}, error) { return d.mtti(rule) },
		},
		"fatal incidents": {
			func() (interface{}, error) { return d.FilterFatal(rule) },
			func() (interface{}, error) {
				return FilterBySeverity(d.Events, raslog.Fatal, rule)
			},
		},
		"warn incidents": {
			func() (interface{}, error) { return d.FilterWarn(rule) },
			func() (interface{}, error) {
				return FilterBySeverity(d.Events, raslog.Warn, rule)
			},
		},
		"io": {
			func() (interface{}, error) { return d.IOBehavior() },
			func() (interface{}, error) { return d.ioBehavior() },
		},
		"cdfs": {
			func() (interface{}, error) { s, f := d.ExecutionLengthCDFs(); return [2][]float64{s, f}, nil },
			func() (interface{}, error) { s, f := d.executionLengthCDFs(); return [2][]float64{s, f}, nil },
		},
		"availability": {
			func() (interface{}, error) { return d.Availability() },
			func() (interface{}, error) { return d.availability() },
		},
		"survival": {
			func() (interface{}, error) { return d.Survival() },
			func() (interface{}, error) { return d.survival() },
		},
	}
	for _, by := range []GroupBy{ByUser, ByProject} {
		m["concentration "+by.String()] = pair{
			func() (interface{}, error) { return d.Concentration(by) },
			func() (interface{}, error) {
				p, err := d.FusedScan(0)
				if err != nil {
					return nil, err
				}
				return p.Concentration(by)
			},
		}
	}
	for _, dim := range []StructureDim{DimNodes, DimTasks, DimCoreHours, DimRuntime} {
		m["structure "+dim.String()] = pair{
			func() (interface{}, error) { return d.FailureByStructure(dim) },
			func() (interface{}, error) { return d.failureByStructure(dim) },
		}
	}
	return m
}

// identity reduces a memoized result to something that compares equal
// exactly when two results share storage: the pointer itself, or the first
// element's address for slices.
func identity(t *testing.T, v interface{}) interface{} {
	t.Helper()
	switch x := v.(type) {
	case []Incident:
		if len(x) == 0 {
			t.Fatal("empty incident stream")
		}
		return &x[0]
	case [2][]float64:
		if len(x[0]) == 0 || len(x[1]) == 0 {
			t.Fatal("empty execution-length CDF")
		}
		return [2]*float64{&x[0][0], &x[1][0]}
	default:
		return v
	}
}

// TestMemoizedAnalysesShared checks every memoized accessor computes once
// (a second call returns the same object) and that the memoized result
// equals the uncached computation.
func TestMemoizedAnalysesShared(t *testing.T) {
	d := freshDataset(t)
	for name, acc := range memoized(d) {
		first, err := acc.cached()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, _ := acc.cached()
		if identity(t, first) != identity(t, again) {
			t.Errorf("%s: recomputed instead of memoized", name)
		}
		direct, err := acc.direct()
		if err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}
		if name == "profile" {
			if first == direct {
				t.Error("FusedScan returned the memoized profile; it must scan")
			}
			profileFields(t, "memoized vs FusedScan", first.(*FusedProfile), direct.(*FusedProfile))
			continue
		}
		if !reflect.DeepEqual(first, direct) {
			t.Errorf("%s: memoized result differs from a direct computation", name)
		}
	}
	p1, _ := d.CorpusProfile(1)
	if p4, _ := d.CorpusProfile(4); p1 != p4 {
		t.Error("CorpusProfile recomputed for a different worker bound")
	}
}

// TestMemoBypass checks the parameterizations outside the memo — a
// non-default MTTI or filter rule, an unknown structure dimension or
// grouping — compute a fresh result on every call, equal to a direct
// computation, and leave the memoized default untouched.
func TestMemoBypass(t *testing.T) {
	d := freshDataset(t)
	def, err := d.MTTI(DefaultFilterRule())
	if err != nil {
		t.Fatal(err)
	}
	rule := DefaultFilterRule()
	rule.Window = 2 * time.Hour
	a, err := d.MTTI(rule)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := d.MTTI(rule)
	if a == b || a == def {
		t.Error("non-default MTTI rule served from the memo")
	}
	if want, _ := d.mtti(rule); !reflect.DeepEqual(a, want) {
		t.Error("non-default MTTI differs from a direct computation")
	}
	if again, _ := d.MTTI(DefaultFilterRule()); again != def {
		t.Error("non-default MTTI rule replaced the memoized default")
	}

	fa, err := d.FilterFatal(rule)
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := d.FilterFatal(rule)
	if &fa[0] == &fb[0] {
		t.Error("non-default filter rule served from the memo")
	}
	if want, _ := FilterBySeverity(d.Events, raslog.Fatal, rule); !reflect.DeepEqual(fa, want) {
		t.Error("non-default FilterFatal differs from a direct computation")
	}

	const unknown = StructureDim(99)
	sa, err := d.FailureByStructure(unknown)
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := d.FailureByStructure(unknown)
	if sa == sb {
		t.Error("unknown structure dimension served from the memo")
	}
	if want, _ := d.failureByStructure(unknown); !reflect.DeepEqual(sa, want) {
		t.Error("unknown structure dimension differs from a direct computation")
	}

	ca, err := d.Concentration(GroupBy(0))
	if err != nil {
		t.Fatal(err)
	}
	if cb, _ := d.Concentration(GroupBy(0)); ca == cb {
		t.Error("unknown grouping served from the memo")
	}
}

// TestRaceMemoFirstTouch races every memoized accessor on a cold Dataset:
// each goroutine must get the same object (run with -race).
func TestRaceMemoFirstTouch(t *testing.T) {
	d := freshDataset(t)
	acc := memoized(d)
	const goroutines = 8
	seen := make([]map[string]interface{}, goroutines)
	var wg sync.WaitGroup
	for g := range seen {
		seen[g] = map[string]interface{}{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for name, a := range acc {
				v, err := a.cached()
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				seen[g][name] = v
			}
		}(g)
	}
	wg.Wait()
	for name := range acc {
		for g := 1; g < goroutines; g++ {
			if identity(t, seen[g][name]) != identity(t, seen[0][name]) {
				t.Errorf("%s: goroutine %d saw a different result", name, g)
			}
		}
	}
}
