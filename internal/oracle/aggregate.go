package oracle

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/stats"
)

// Aggregate groups jobs by user or project, using the classification for
// system-failure attribution (nil attributes none). Results are sorted by
// descending job count, key ascending.
func Aggregate(d *core.Dataset, by core.GroupBy, cls *Classification) []core.GroupStats {
	type accum struct {
		jobs, failed, sysfails int
		coreSec                int64
	}
	m := map[string]*accum{}
	for i := range d.Jobs {
		j := &d.Jobs[i]
		key := j.User
		if by == core.ByProject {
			key = j.Project
		}
		g, ok := m[key]
		if !ok {
			g = &accum{}
			m[key] = g
		}
		g.jobs++
		g.coreSec += j.CoreSeconds()
		if j.Outcome() == joblog.OutcomeFailure {
			g.failed++
			if cls != nil && cls.Causes[j.ID] == CauseSystem {
				g.sysfails++
			}
		}
	}
	out := make([]core.GroupStats, 0, len(m))
	for key, g := range m {
		out = append(out, core.GroupStats{
			Key:         key,
			Jobs:        g.jobs,
			Failed:      g.failed,
			SystemFails: g.sysfails,
			CoreHours:   float64(g.coreSec) / 3600,
			FailRate:    float64(g.failed) / float64(g.jobs),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Jobs != out[j].Jobs {
			return out[i].Jobs > out[j].Jobs
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Concentration computes the concentration/correlation profile of the
// grouping: Gini and top-10 shares of jobs, core-hours and failures, the
// activity↔failure correlations, and Cramér's V between group identity
// and outcome over the per-job columns.
func Concentration(d *core.Dataset, by core.GroupBy, cls *Classification) (*core.ConcentrationResult, error) {
	groups := Aggregate(d, by, cls)
	if len(groups) < 2 {
		return nil, fmt.Errorf("oracle: need ≥2 groups, have %d", len(groups))
	}
	jobs := make([]float64, len(groups))
	fails := make([]float64, len(groups))
	ch := make([]float64, len(groups))
	rates := make([]float64, len(groups))
	for i, g := range groups {
		jobs[i] = float64(g.Jobs)
		fails[i] = float64(g.Failed)
		ch[i] = g.CoreHours
		rates[i] = g.FailRate
	}
	keys := make([]string, len(d.Jobs))
	outcomes := make([]string, len(d.Jobs))
	for i := range d.Jobs {
		keys[i] = d.Jobs[i].User
		if by == core.ByProject {
			keys[i] = d.Jobs[i].Project
		}
		outcomes[i] = d.Jobs[i].Outcome().String()
	}
	res := &core.ConcentrationResult{By: by, Groups: len(groups)}
	var err error
	if res.GiniJobs, err = stats.Gini(jobs); err != nil {
		return nil, err
	}
	if res.GiniCoreHours, err = stats.Gini(ch); err != nil {
		return nil, err
	}
	if res.GiniFailures, err = stats.Gini(fails); err != nil {
		return nil, err
	}
	if res.Top10JobShare, err = stats.TopKShare(jobs, 10); err != nil {
		return nil, err
	}
	if res.Top10CHShare, err = stats.TopKShare(ch, 10); err != nil {
		return nil, err
	}
	if res.Top10FailShare, err = stats.TopKShare(fails, 10); err != nil {
		return nil, err
	}
	if res.PearsonJobsFailures, err = stats.Pearson(jobs, fails); err != nil {
		return nil, err
	}
	if res.SpearmanJobsFailRate, err = stats.Spearman(jobs, rates); err != nil {
		return nil, err
	}
	if res.CramersV, err = stats.CramersV(keys, outcomes); err != nil {
		return nil, err
	}
	return res, nil
}

// InterruptsByUser correlates per-user consumption with system interrupts
// under the classification, over users in alphabetical order.
func InterruptsByUser(d *core.Dataset, cls *Classification) (*core.InterruptCorrelation, error) {
	type agg struct {
		coreSec    int64
		jobs       int
		interrupts int
	}
	m := map[string]*agg{}
	for i := range d.Jobs {
		j := &d.Jobs[i]
		a, ok := m[j.User]
		if !ok {
			a = &agg{}
			m[j.User] = a
		}
		a.jobs++
		a.coreSec += j.CoreSeconds()
		if cls.Causes[j.ID] == CauseSystem {
			a.interrupts++
		}
	}
	if len(m) < 3 {
		return nil, fmt.Errorf("oracle: need ≥3 users, have %d", len(m))
	}
	users := make([]string, 0, len(m))
	for u := range m {
		users = append(users, u)
	}
	sort.Strings(users)
	ch := make([]float64, len(users))
	jobs := make([]float64, len(users))
	ints := make([]float64, len(users))
	res := &core.InterruptCorrelation{Users: len(users)}
	for i, u := range users {
		a := m[u]
		ch[i] = float64(a.coreSec) / 3600
		jobs[i] = float64(a.jobs)
		ints[i] = float64(a.interrupts)
		if a.interrupts > 0 {
			res.Interrupted++
		}
	}
	var err error
	if res.PearsonCHInterrupts, err = stats.Pearson(ch, ints); err != nil {
		return nil, err
	}
	if res.PearsonJobsInterrupts, err = stats.Pearson(jobs, ints); err != nil {
		return nil, err
	}
	// Share of interrupts on the top decile of users by core-hours.
	idx := make([]int, len(ch))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ch[idx[a]] > ch[idx[b]] })
	k := max(len(idx)/10, 1)
	var top, total float64
	for i, id := range idx {
		total += ints[id]
		if i < k {
			top += ints[id]
		}
	}
	if total > 0 {
		res.TopDecileShare = top / total
	}
	return res, nil
}

// Waste computes the failure-cost breakdown, using the classification for
// the user/system attribution.
func Waste(d *core.Dataset, cls *Classification) *core.WasteResult {
	type famAccum struct {
		jobs    int
		coreSec int64
	}
	byFam := map[joblog.ExitFamily]*famAccum{}
	var totalCS, wastedCS, userCS, sysCS int64
	for i := range d.Jobs {
		j := &d.Jobs[i]
		cs := j.CoreSeconds()
		totalCS += cs
		if j.Outcome() != joblog.OutcomeFailure {
			continue
		}
		wastedCS += cs
		if cls.Causes[j.ID] == CauseSystem {
			sysCS += cs
		} else {
			userCS += cs
		}
		fam := joblog.Family(j.ExitStatus)
		row, ok := byFam[fam]
		if !ok {
			row = &famAccum{}
			byFam[fam] = row
		}
		row.jobs++
		row.coreSec += cs
	}
	res := &core.WasteResult{
		TotalCoreHours:  float64(totalCS) / 3600,
		WastedCoreHours: float64(wastedCS) / 3600,
		UserCoreHours:   float64(userCS) / 3600,
		SystemCoreHours: float64(sysCS) / 3600,
	}
	if res.TotalCoreHours > 0 {
		res.WastedShare = res.WastedCoreHours / res.TotalCoreHours
	}
	for fam, a := range byFam {
		row := core.WasteRow{Family: fam, Jobs: a.jobs, CoreHours: float64(a.coreSec) / 3600}
		if res.WastedCoreHours > 0 {
			row.Share = row.CoreHours / res.WastedCoreHours
		}
		res.ByFamily = append(res.ByFamily, row)
	}
	sort.Slice(res.ByFamily, func(i, j int) bool {
		if res.ByFamily[i].CoreHours != res.ByFamily[j].CoreHours {
			return res.ByFamily[i].CoreHours > res.ByFamily[j].CoreHours
		}
		return res.ByFamily[i].Family < res.ByFamily[j].Family
	})
	return res
}
