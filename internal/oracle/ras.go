package oracle

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/stats"
)

// Temporal computes the hour/weekday/month/day activity patterns of jobs
// (by submission time) and FATAL events. Months are keyed by their
// time.Format label in first-appearance order: jobs first, then FATAL
// events.
func Temporal(d *core.Dataset) *core.TemporalProfile {
	p := &core.TemporalProfile{}
	monthIdx := map[string]int{}
	monthKey := func(t time.Time) int {
		k := t.Format("2006-01")
		idx, ok := monthIdx[k]
		if !ok {
			idx = len(p.Months)
			monthIdx[k] = idx
			p.Months = append(p.Months, k)
			p.JobsByMonth = append(p.JobsByMonth, 0)
			p.FailsByMonth = append(p.FailsByMonth, 0)
			p.FatalByMonth = append(p.FatalByMonth, 0)
		}
		return idx
	}
	start, _ := d.Span()
	for i := range d.Jobs {
		j := &d.Jobs[i]
		h := j.Submit.Hour()
		w := j.Submit.Weekday()
		m := monthKey(j.Submit)
		day := max(int(j.Submit.Sub(start).Hours()/24), 0)
		for len(p.JobsByDay) <= day {
			p.JobsByDay = append(p.JobsByDay, 0)
		}
		p.JobsByDay[day]++
		p.JobsByHour[h]++
		p.JobsByWeekday[w]++
		p.JobsByMonth[m]++
		if j.Outcome() == joblog.OutcomeFailure {
			p.FailsByHour[h]++
			p.FailsByWeekday[w]++
			p.FailsByMonth[m]++
		}
	}
	for i := range d.Events {
		e := &d.Events[i]
		if e.Sev != raslog.Fatal {
			continue
		}
		p.FatalByHour[e.Time.Hour()]++
		p.FatalByMonth[monthKey(e.Time)]++
	}
	return p
}

// Profile computes the RAS composition table: counts by severity, category
// and component, plus the FATAL-only category counts.
func Profile(d *core.Dataset) *core.CategoryProfile {
	p := &core.CategoryProfile{
		BySeverity:      map[raslog.Severity]int{},
		ByCategory:      map[raslog.Category]int{},
		ByComponent:     map[raslog.Component]int{},
		FatalByCategory: map[raslog.Category]int{},
	}
	for i := range d.Events {
		e := &d.Events[i]
		p.Total++
		p.BySeverity[e.Sev]++
		p.ByCategory[e.Cat]++
		p.ByComponent[e.Comp]++
		if e.Sev == raslog.Fatal {
			p.FatalByCategory[e.Cat]++
		}
	}
	return p
}

// Locality counts FATAL events per rack or midplane and measures their
// spatial concentration across all locations at that level, zero-count
// ones included. Events located above the level are skipped.
func Locality(d *core.Dataset, level machine.Level) (*core.LocalityResult, error) {
	if level != machine.LevelRack && level != machine.LevelMidplane {
		return nil, fmt.Errorf("oracle: locality level must be rack or midplane, got %v", level)
	}
	slots := machine.NumRacks
	if level == machine.LevelMidplane {
		slots = machine.TotalMidplanes
	}
	counts := map[machine.Location]int{}
	total := 0
	for i := range d.Events {
		e := &d.Events[i]
		if e.Sev != raslog.Fatal || e.Loc.Level() < level {
			continue
		}
		loc, err := e.Loc.Ancestor(level)
		if err != nil {
			continue
		}
		counts[loc]++
		total++
	}
	if total == 0 {
		return nil, fmt.Errorf("oracle: no FATAL events at or below %v", level)
	}
	out := &core.LocalityResult{Level: level}
	for loc, n := range counts {
		out.Counts = append(out.Counts, core.LocationCount{Loc: loc, Count: n})
	}
	sort.Slice(out.Counts, func(i, j int) bool {
		if out.Counts[i].Count != out.Counts[j].Count {
			return out.Counts[i].Count > out.Counts[j].Count
		}
		return out.Counts[i].Loc.String() < out.Counts[j].Loc.String()
	})
	vals := make([]float64, slots)
	for i, c := range out.Counts {
		vals[i] = float64(c.Count)
	}
	var err error
	if out.Gini, err = stats.Gini(vals); err != nil {
		return nil, err
	}
	if out.Top5Share, err = stats.TopKShare(vals, 5); err != nil {
		return nil, err
	}
	out.UniformTopShare = 5.0 / float64(slots)
	out.Localized = out.Top5Share >= 2*out.UniformTopShare
	return out, nil
}
