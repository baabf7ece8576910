// Command perfbench is the repository benchmark. It runs one workload —
// generate, report or serve — through the same public functions that
// cmd/miragen, cmd/mirareport and cmd/mirad call, checks the outputs, and
// prints one JSON result line. See README.md in this directory.
//
// Usage (from the repository root, through run.sh which builds it):
//
//	bash perfbench/run.sh --workload report --seed 1 --seconds 10 --trace 0
//
// The parent process orchestrates; every workload step that is measured
// for time or memory runs in a child process (the same binary, -child
// <role>) so that each step's peak RSS is its own.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runDeadline keeps every run inside the 180 s a run may take.
const runDeadline = 170 * time.Second

type options struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    bool
	anchors  bool   // report child: check the suite against the full-scale anchors
	work     string // working directory of this run, under .bench_build
}

func main() {
	var (
		o       options
		traceN  int
		child   string
		in, out string
		replay  string
	)
	flag.StringVar(&o.root, "root", ".", "repository root (the checkout being measured)")
	flag.StringVar(&o.workload, "workload", "", "workload: generate, report or serve")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the corpus and of the request generator")
	flag.IntVar(&o.seconds, "seconds", 10, "how long the measured phase runs")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.StringVar(&child, "child", "", "internal: run one child step (setup, gen, report, experiments, server, verify)")
	flag.StringVar(&in, "in", "", "internal: snapshot to read")
	flag.StringVar(&out, "out", "", "internal: output directory")
	flag.StringVar(&replay, "replay", "", "internal: verify input file")
	flag.BoolVar(&o.anchors, "anchors", false, "internal: check the report against the full-scale anchors")
	flag.Parse()
	o.trace = traceN == 1

	if child != "" {
		if err := runChild(child, o, in, out, replay); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", child, err)
			os.Exit(1)
		}
		return
	}
	if err := runParent(o, traceN); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: both metric sets (the parent
// prints the one the run asked for), operation counts, failed checks and
// the details recorded with the result.
type outcome struct {
	endToEnd  map[string]float64
	perLayer  map[string]float64
	attempted int
	failures  []string
	digests   map[string]string
	corpus    corpusInfo
	samples   map[string]int
	series    map[string][]float64 // per-repeat values behind a median
	latency   map[string]float64   // serve: the untraced loop's percentiles; traced: overheads
	spans     []span
}

type corpusInfo struct {
	Seed   int64 `json:"seed"`
	Days   int   `json:"days"`
	Jobs   int   `json:"jobs"`
	Events int   `json:"events"`
}

func (oc *outcome) fail(format string, args ...any) {
	oc.failures = append(oc.failures, fmt.Sprintf(format, args...))
}

func runParent(o options, traceN int) error {
	if traceN != 0 && traceN != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceN)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be positive, got %d", o.seconds)
	}
	switch o.workload {
	case "generate", "report", "serve":
	default:
		return fmt.Errorf("unknown --workload %q (want generate, report or serve)", o.workload)
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		return err
	}
	o.root = root
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return fmt.Errorf("not a repository root: %w", err)
	}
	o.work = filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-s%d-t%d-p%d", o.workload, o.seed, traceN, os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.work)

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	var oc *outcome
	switch o.workload {
	case "generate":
		oc, err = runGenerate(ctx, o)
	case "report":
		oc, err = runReport(ctx, o)
	case "serve":
		oc, err = runServe(ctx, o)
	}
	if err != nil {
		return err
	}

	names, values := endToEndMetrics, oc.endToEnd
	if o.trace {
		names, values = perLayerMetrics, oc.perLayer
	}
	res := result{
		Correct:   len(oc.failures) == 0,
		Attempted: oc.attempted,
		Failed:    len(oc.failures),
		Metrics:   map[string]metric{},
	}
	for _, n := range names {
		v, ok := values[n]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = metric{Value: v, Unit: metricUnits[n]}
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}

	detail := map[string]any{
		"identity": identity(o, oc.corpus),
		"digests":  oc.digests,
		"samples":  oc.samples,
		"series":   oc.series,
		"latency":  oc.latency,
		"failures": oc.failures,
	}
	if err := writeRecord(o, traceN, detail, res, oc.spans); err != nil {
		return err
	}
	line, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeRecord keeps the run's full record, spans included, under
// .bench_build/results once the run has ended.
func writeRecord(o options, traceN int, detail map[string]any, res result, spans []span) error {
	dir := filepath.Join(o.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{"detail": detail, "result": res}
	if len(spans) > 0 {
		rec["spans"] = withSelfTimes(spans)
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", o.workload, o.seed, traceN, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// identity records which tree was measured, on what.
func identity(o options, c corpusInfo) map[string]any {
	id := map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.trace,
		"go_version":  runtime.Version(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"corpus":      c,
		"tree_sha256": treeDigest(o.root),
		"git_sha":     "none",
	}
	// Only a checkout that is itself a git work tree has a sha: git would
	// otherwise report an enclosing repository.
	if _, err := os.Stat(filepath.Join(o.root, ".git")); err != nil {
		return id
	}
	if sha, err := exec.Command("git", "-C", o.root, "rev-parse", "HEAD").Output(); err == nil {
		id["git_sha"] = strings.TrimSpace(string(sha))
		st, err := exec.Command("git", "-C", o.root, "status", "--porcelain", "--untracked-files=no").Output()
		id["git_dirty"] = err != nil || len(st) > 0
	}
	return id
}

// treeDigest hashes the measured source tree (Go sources, module files and
// the benchmark's own files), so a result identifies its code even where
// the checkout is not a git repository.
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !(strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" ||
			strings.HasPrefix(path, filepath.Join(root, "perfbench")+string(filepath.Separator)) ||
			name == "BENCHMARK.json") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// childProc is one running child step.
type childProc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	lines   *bufio.Scanner
	started time.Time
}

// startChild launches this binary as a child step. Its standard output
// carries JSON lines back; its standard error passes through.
func startChild(ctx context.Context, o options, role string, args ...string) (*childProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	argv := append([]string{"-child", role, "-root", o.root, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", trace}, args...)
	cmd := exec.CommandContext(ctx, exe, argv...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &childProc{cmd: cmd, stdin: stdin, lines: bufio.NewScanner(stdout)}
	p.lines.Buffer(make([]byte, 1<<20), 256<<20)
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	return p, nil
}

// next decodes the child's next output line into v.
func (p *childProc) next(v any) error {
	if !p.lines.Scan() {
		if err := p.lines.Err(); err != nil {
			return err
		}
		return fmt.Errorf("%s: no output", p.cmd.Args[2])
	}
	return json.Unmarshal(p.lines.Bytes(), v)
}

// finish closes the child's stdin, waits for it to exit and returns its
// peak resident memory in MB.
func (p *childProc) finish() (float64, error) {
	p.stdin.Close()
	for p.lines.Scan() {
		// Drain any further output so the child never blocks on a full pipe.
	}
	if err := p.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("%s: %w", p.cmd.Args[2], err)
	}
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for child")
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KB
}

// kill stops a child that is still running and waits for it; it is safe
// after finish.
func (p *childProc) kill() {
	if p.cmd.ProcessState != nil {
		return
	}
	p.stdin.Close()
	_ = p.cmd.Process.Kill() // best effort: Wait below reaps it either way
	_ = p.cmd.Wait()
}

// runOnce runs a child step that prints one JSON line and exits.
func runOnce(ctx context.Context, o options, v any, role string, args ...string) (rssMB, wallS float64, err error) {
	p, err := startChild(ctx, o, role, args...)
	if err != nil {
		return 0, 0, err
	}
	defer p.kill()
	if err := p.next(v); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", role, err)
	}
	rss, err := p.finish()
	return rss, time.Since(p.started).Seconds(), err
}

// repeatMetrics are the end-to-end metrics of a workload whose operation
// is its whole path, repeated: the median path, the operations per second
// of path time, and the slowest repeat as the p99.
func repeatMetrics(setupS float64, rss, paths []float64) map[string]float64 {
	var sum float64
	for _, p := range paths {
		sum += p
	}
	return map[string]float64{
		"setup_s":     setupS,
		"peak_rss_mb": median(rss),
		"path_s":      median(paths),
		"ops_per_s":   float64(len(paths)) / sum,
		"op_p99_ms":   quantile(paths, 0.99) * 1e3,
	}
}

// median of a non-empty sample (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile; +Inf entries (failed requests)
// sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 0 && q == 0.5 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
