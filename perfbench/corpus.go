package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pack"
	"repro/internal/sim"
)

// vocab is what the request generator needs to know about a corpus: the
// dictionary values it may name and the calendar span it covers.
type vocab struct {
	Users    []string `json:"users"`
	Projects []string `json:"projects"`
	Start    string   `json:"start"`
	End      string   `json:"end"`
}

const vocabName = "vocab.json"

// Every workload generates sim.DefaultConfig's calibrated corpus at its
// default seed, whatever --seed is. The simulator's job count swings with
// its seed (43.7k to 72.1k jobs over 365 days for seeds 1 to 16, with
// generation taking 3.6 to 5.6 s), far more than the regressions the
// benchmark has to resolve; --seed drives the serve request stream.

// childSetup builds the full-scale (sim.DefaultConfig, 2001-day) snapshot
// the report and serve workloads read: the miragen path without the CSV
// logs, which only a traced run writes (and then removes), to measure the
// log codecs on the full corpus. It also writes the corpus vocabulary for
// the request generator.
func childSetup(o options, out string) (stepOut, error) {
	res := newStepOut()
	cfg := sim.DefaultConfig()
	tr := newTracer(fmt.Sprintf("setup/seed%d", o.seed), o.trace)
	root := tr.begin("setup", 0)
	var c *sim.Corpus
	var d *core.Dataset
	err := tr.do("sim.generate", root, func() (err error) { c, err = sim.Generate(cfg); return err })
	if err == nil && o.trace {
		logs := filepath.Join(out, "logs")
		if err = os.MkdirAll(logs, 0o755); err == nil {
			err = writeLogs(tr, root, logs, c)
		}
		if err == nil {
			err = os.RemoveAll(logs)
		}
	}
	if err == nil {
		err = tr.do("core.dataset", root, func() (err error) {
			d, err = core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
			return err
		})
	}
	if err == nil {
		err = tr.do("pack.write", root, func() error { return pack.WriteFile(pack.SnapshotPath(out), d) })
	}
	if err == nil {
		// Flush the snapshot now, so that its write-back does not run
		// under the measured phase.
		err = syncFile(pack.SnapshotPath(out))
	}
	if err == nil {
		err = writeVocab(out, d)
	}
	if err != nil {
		return res, err
	}
	tr.end(root)
	res.Values["jobs"] = float64(len(d.Jobs))
	res.Values["events"] = float64(len(d.Events))
	res.Values["rows"] = float64(len(d.Jobs) + len(d.Tasks) + len(d.Events) + len(d.IO))
	res.Values["days"] = float64(cfg.Days)
	res.Values["seed"] = float64(cfg.Seed)
	res.Spans = tr.all()
	return res, nil
}

// writeVocab writes the corpus vocabulary the request generator draws from
// into dir.
func writeVocab(dir string, d *core.Dataset) error {
	users, projects := map[string]bool{}, map[string]bool{}
	for i := range d.Jobs {
		users[d.Jobs[i].User] = true
		projects[d.Jobs[i].Project] = true
	}
	start, end := d.Span()
	v := vocab{Users: sortedKeys(users), Projects: sortedKeys(projects),
		Start: start.Format(time.RFC3339), End: end.Format(time.RFC3339)}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, vocabName), b, 0o644)
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// setupCorpus runs the full-scale set-up in a child and returns the
// snapshot path, the setup's output and its wall time.
func setupCorpus(ctx context.Context, o options, oc *outcome) (string, stepOut, float64, error) {
	var res stepOut
	_, wall, err := runOnce(ctx, o, &res, "setup", "-out", o.work)
	if err != nil {
		return "", res, 0, err
	}
	oc.corpus = corpusInfo{Seed: int64(res.Values["seed"]), Days: int(res.Values["days"]), Jobs: int(res.Values["jobs"]), Events: int(res.Values["events"])}
	oc.spans = append(oc.spans, res.Spans...)
	snap := pack.SnapshotPath(o.work)
	data, err := os.ReadFile(snap)
	if err != nil {
		return "", res, 0, err
	}
	sum := sha256.Sum256(data)
	oc.digests["snapshot_sha256"] = hex.EncodeToString(sum[:])
	res.Values["bytes_per_row"] = float64(len(data)) / res.Values["rows"]
	return snap, res, wall, nil
}

// setupLayers adds the per-layer metrics that come from the set-up's own
// values rather than its spans (sim moves setup_s on the full-scale
// workloads). Call it after spanLayers.
func setupLayers(pl map[string]float64, setup stepOut) {
	pl["sim.jobs_per_s"] = setup.Values["jobs"] / pl["sim.generate_s"]
	pl["pack.bytes_per_row"] = setup.Values["bytes_per_row"]
}

func readVocab(dir string) (vocab, error) {
	var v vocab
	b, err := os.ReadFile(filepath.Join(dir, vocabName))
	if err != nil {
		return v, err
	}
	return v, json.Unmarshal(b, &v)
}

// nodeFloors are the `nodes >=` floors combined with monthly submit
// windows: midplane, 8-rack and 32-rack scale on Mira's 49,152 nodes.
var nodeFloors = []int{512, 4096, 16384}

// population is the serve workload's set of cohort questions in
// popularity order: the i-th predicate is the Zipf stream's rank i. The
// order is a seeded permutation stratified by kind of question: each kind
// is shuffled on its own and the kinds are spread evenly over the ranks, so
// the seed decides which user, project, rack or month is popular, not how
// many of the popular questions are the expensive kinds. Every value it
// names exists in the corpus, so no request is the client's fault.
func population(v vocab, seed int64) ([]string, error) {
	start, err := time.Parse(time.RFC3339, v.Start)
	if err != nil {
		return nil, err
	}
	end, err := time.Parse(time.RFC3339, v.End)
	if err != nil {
		return nil, err
	}
	var user, userFatal, project, projectFailed, rackSev, submit, submitNodes, timeFatal []string
	for _, u := range v.Users {
		user = append(user, fmt.Sprintf("user == %q", u))
		userFatal = append(userFatal, fmt.Sprintf("user == %q and sev == FATAL", u))
	}
	for _, p := range v.Projects {
		project = append(project, fmt.Sprintf("project == %q", p))
		projectFailed = append(projectFailed, fmt.Sprintf("project == %q and exit != success", p))
	}
	for r := 0; r < machine.NumRacks; r++ {
		rack, err := machine.Rack(r)
		if err != nil {
			return nil, err
		}
		for _, sev := range []string{"INFO", "WARN", "FATAL"} {
			rackSev = append(rackSev, fmt.Sprintf("rack == %s and sev == %s", rack, sev))
		}
	}
	month := time.Date(start.Year(), start.Month(), 1, 0, 0, 0, 0, time.UTC)
	for ; month.Before(end); month = month.AddDate(0, 1, 0) {
		lo, hi := month.Format("2006-01-02"), month.AddDate(0, 1, 0).Format("2006-01-02")
		window := fmt.Sprintf("submit >= %s and submit < %s", lo, hi)
		submit = append(submit, window)
		for _, n := range nodeFloors {
			submitNodes = append(submitNodes, fmt.Sprintf("%s and nodes >= %d", window, n))
		}
		timeFatal = append(timeFatal, fmt.Sprintf("time >= %s and time < %s and sev == FATAL", lo, hi))
	}

	type ranked struct {
		pred string
		key  float64 // position of the predicate within its kind, in [0, 1)
	}
	rng := rand.New(rand.NewSource(seed))
	var all []ranked
	for _, kind := range [][]string{user, userFatal, project, projectFailed, rackSev, submit, submitNodes, timeFatal} {
		rng.Shuffle(len(kind), func(i, j int) { kind[i], kind[j] = kind[j], kind[i] })
		for i, p := range kind {
			all = append(all, ranked{p, (float64(i) + 0.5) / float64(len(kind))})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].key < all[j].key })
	out := make([]string, len(all))
	for i, r := range all {
		out[i] = r.pred
	}
	return out, nil
}
