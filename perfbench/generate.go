package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/pack"
	"repro/internal/raslog"
	"repro/internal/sim"
	"repro/internal/tasklog"
)

// generateDays is the generate workload's corpus span. The scheduler
// replay's cost per job start is flat once the queue reaches steady
// state, so 365 days runs the same hot path as the full 2001 days in a
// fifth of the time.
const generateDays = 365

// stepOut is the JSON line a child step prints.
type stepOut struct {
	Values   map[string]float64 `json:"values"`
	Strings  map[string]string  `json:"strings,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	// ReadyNs is the wall clock at which the step was set up and about to
	// start its timed part.
	ReadyNs int64 `json:"ready_ns,omitempty"`
}

func newStepOut() stepOut {
	return stepOut{Values: map[string]float64{}, Strings: map[string]string{}}
}

// memMark is a point in the process's allocation history.
type memMark struct {
	alloc uint64
	gc    uint32
}

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.TotalAlloc, m.NumGC}
}

// recordSince stores the MB allocated and GC cycles run since a.
func (a memMark) recordSince(v map[string]float64) {
	b := markMem()
	v["alloc_mb"] = float64(b.alloc-a.alloc) / (1 << 20)
	v["gc_cycles"] = float64(b.gc - a.gc)
}

func runChild(role string, o options, in, out, replay string) error {
	var (
		res stepOut
		err error
	)
	switch role {
	case "gen":
		res, err = childGen(o, out, false)
	case "probe":
		res, err = childGen(o, out, true)
	case "setup":
		res, err = childSetup(o, out)
	case "report":
		res, err = childReport(o, in)
	case "experiments":
		res, err = childExperiments(o, in)
	case "server":
		return childServer(o, in)
	case "verify":
		res, err = childVerify(o, in, replay)
	default:
		return fmt.Errorf("unknown child role %q", role)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// writeCSV writes one log the way cmd/miragen does.
func writeCSV(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// writeLogs writes the four CSV logs into dir, one span each.
func writeLogs(tr *tracer, parent int, dir string, c *sim.Corpus) error {
	logs := []struct {
		name, file string
		write      func(*os.File) error
	}{
		{"joblog.write", "jobs.csv", func(f *os.File) error { return joblog.WriteCSV(f, c.Jobs) }},
		{"tasklog.write", "tasks.csv", func(f *os.File) error { return tasklog.WriteCSV(f, c.Tasks) }},
		{"raslog.write", "ras.csv", func(f *os.File) error { return raslog.WriteCSV(f, c.Events) }},
		{"iolog.write", "io.csv", func(f *os.File) error { return iolog.WriteCSV(f, c.IO) }},
	}
	for _, l := range logs {
		if err := tr.do(l.name, parent, func() error { return writeCSV(filepath.Join(dir, l.file), l.write) }); err != nil {
			return err
		}
	}
	return nil
}

// childGen is one miragen run: generate, write the four CSV logs, index,
// and write the snapshot. A probe stops where the timed part would start,
// so that the workload's set-up can be sampled more often than it repeats.
func childGen(o options, out string, probe bool) (stepOut, error) {
	res := newStepOut()
	if err := os.MkdirAll(out, 0o755); err != nil {
		return res, err
	}
	cfg := sim.DefaultConfig()
	cfg.Days = generateDays
	tr := newTracer(fmt.Sprintf("generate/seed%d/%s", o.seed, filepath.Base(out)), o.trace)
	mem := markMem()
	res.ReadyNs = time.Now().UnixNano()
	if probe {
		return res, nil
	}
	t0 := time.Now()
	root := tr.begin("generate", 0)

	var c *sim.Corpus
	var d *core.Dataset
	err := tr.do("sim.generate", root, func() (err error) { c, err = sim.Generate(cfg); return err })
	if err == nil {
		err = writeLogs(tr, root, out, c)
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
	if err != nil {
		return res, err
	}
	tr.end(root)
	res.Values["generate_s"] = time.Since(t0).Seconds()
	mem.recordSince(res.Values)
	res.Values["jobs"] = float64(len(c.Jobs))
	res.Values["tasks"] = float64(len(c.Tasks))
	res.Values["events"] = float64(len(c.Events))
	res.Values["io"] = float64(len(c.IO))
	res.Spans = tr.all()
	return res, nil
}

// checkSnapshot verifies a written snapshot: it passes pack.Inspect and
// reads back with the row counts the writer reported. It returns the
// snapshot's sha256 and size, and the Dataset read back (nil when the read
// failed).
func checkSnapshot(path string, want map[string]float64) (digest string, size int, d *core.Dataset, problems []string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", 0, nil, nil, err
	}
	sum := sha256.Sum256(data)
	if _, ierr := pack.Inspect(data); ierr != nil {
		problems = append(problems, fmt.Sprintf("%s: inspect: %v", path, ierr))
	}
	d, rerr := pack.ReadFile(path)
	if rerr != nil {
		problems = append(problems, fmt.Sprintf("%s: read back: %v", path, rerr))
	} else {
		got := map[string]int{"jobs": len(d.Jobs), "tasks": len(d.Tasks), "events": len(d.Events), "io": len(d.IO)}
		for _, k := range []string{"jobs", "tasks", "events", "io"} {
			if float64(got[k]) != want[k] {
				problems = append(problems, fmt.Sprintf("%s: read back %d %s, wrote %v", path, got[k], k, want[k]))
			}
		}
	}
	return hex.EncodeToString(sum[:]), len(data), d, problems, nil
}

// minGenerateReps is the least number of generate repeats in a run; the
// snapshot digest is compared across them.
const minGenerateReps = 5

// probesPerRep is how many set-up probes follow each repeat. The
// workload's set-up is a few milliseconds of process start-up, so its
// median needs more samples than there are repeats.
const probesPerRep = 4

// probeSetup times one child's start-up to the point where a repeat would
// start its timer.
func probeSetup(ctx context.Context, o options, out string) (float64, error) {
	var res stepOut
	p, err := startChild(ctx, o, "probe", "-out", out)
	if err != nil {
		return 0, err
	}
	defer p.kill()
	if err := p.next(&res); err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	if _, err := p.finish(); err != nil {
		return 0, err
	}
	return float64(res.ReadyNs-p.started.UnixNano()) / 1e9, os.RemoveAll(out)
}

// runGenerate repeats the miragen path for the run's duration. A traced
// run keeps the first repeat's snapshot and runs the report and serve
// paths over it, traced, once the repeats are done.
func runGenerate(ctx context.Context, o options) (*outcome, error) {
	oc := &outcome{digests: map[string]string{}, samples: map[string]int{}}
	var setup, gen, rss []float64
	var traced []stepOut
	var plainGen []float64
	kept := ""
	start := time.Now()
	for rep := 0; rep < minGenerateReps || time.Since(start) < time.Duration(o.seconds)*time.Second; rep++ {
		ro := o
		ro.trace = o.trace && rep%2 == 1 // traced runs alternate plain and traced repeats
		out := filepath.Join(o.work, fmt.Sprintf("rep%d", rep))
		p, err := startChild(ctx, ro, "gen", "-out", out)
		if err != nil {
			return nil, err
		}
		var res stepOut
		if err := p.next(&res); err != nil {
			p.kill()
			return nil, fmt.Errorf("gen: %w", err)
		}
		peak, err := p.finish()
		if err != nil {
			return nil, err
		}
		oc.attempted++
		setup = append(setup, float64(res.ReadyNs-p.started.UnixNano())/1e9)
		gen = append(gen, res.Values["generate_s"])
		rss = append(rss, peak)
		oc.corpus = corpusInfo{Seed: sim.DefaultConfig().Seed, Days: generateDays, Jobs: int(res.Values["jobs"]), Events: int(res.Values["events"])}

		digest, size, d, problems, err := checkSnapshot(pack.SnapshotPath(out), res.Values)
		if err != nil {
			return nil, err
		}
		if prev, ok := oc.digests["snapshot_sha256"]; ok && prev != digest {
			problems = append(problems, fmt.Sprintf("rep %d: snapshot sha256 %s differs from rep 0's %s", rep, digest, prev))
		}
		oc.digests["snapshot_sha256"] = digest
		if len(problems) > 0 {
			oc.fail("generate rep %d: %v", rep, problems)
		}
		rows := res.Values["jobs"] + res.Values["tasks"] + res.Values["events"] + res.Values["io"]
		res.Values["bytes_per_row"] = float64(size) / rows
		if o.trace && kept == "" && d != nil {
			if err := writeVocab(out, d); err != nil {
				return nil, err
			}
			kept = out
		} else if err := os.RemoveAll(out); err != nil {
			return nil, err
		}
		if ro.trace {
			traced = append(traced, res)
			oc.spans = append(oc.spans, res.Spans...)
		} else {
			plainGen = append(plainGen, res.Values["generate_s"])
		}
		for i := 0; i < probesPerRep; i++ {
			s, err := probeSetup(ctx, o, filepath.Join(o.work, "probe"))
			if err != nil {
				return nil, err
			}
			setup = append(setup, s)
		}
	}
	oc.samples["repeats"] = len(gen)
	oc.samples["setups"] = len(setup)
	oc.series = map[string][]float64{"path_s": gen, "setup_s": setup, "peak_rss_mb": rss}
	oc.endToEnd = repeatMetrics(median(setup), rss, gen)
	if !o.trace {
		return oc, nil
	}
	if kept == "" {
		return nil, errors.New("no snapshot read back for the traced passes")
	}
	snap := pack.SnapshotPath(kept)
	pl := map[string]float64{}
	rp, err := reportPass(ctx, o, snap, false, oc)
	if err != nil {
		return nil, err
	}
	if err := experimentsPass(ctx, o, snap, oc); err != nil {
		return nil, err
	}
	if _, err := traceServe(ctx, o, kept, oc, pl); err != nil {
		return nil, err
	}
	spanLayers(pl, oc.spans)
	pl["sim.jobs_per_s"] = traced[0].Values["jobs"] / pl["sim.generate_s"]
	pl["pack.bytes_per_row"] = traced[0].Values["bytes_per_row"]
	pl["report.bytes"] = rp.Values["bytes"]
	pl["runtime.alloc_mb"] = medianOf(traced, "alloc_mb")
	pl["runtime.gc_cycles"] = medianOf(traced, "gc_cycles")
	pl["trace.overhead_s"] = medianOf(traced, "generate_s") - median(plainGen)
	oc.perLayer = pl
	return oc, nil
}

// medianOf is the median of one value across child outputs.
func medianOf(outs []stepOut, key string) float64 {
	var xs []float64
	for _, r := range outs {
		xs = append(xs, r.Values[key])
	}
	return median(xs)
}
