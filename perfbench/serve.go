package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pack"
	"repro/internal/sel"
	"repro/internal/serve"
)

const (
	// clients is the closed loop's size: cohort-sweep scripts that each
	// wait for a reply before asking the next question, one keep-alive
	// connection each.
	clients = 2
	// zipfS skews the predicate popularity; over ~3,000 predicates and
	// the default 1,024-entry LRU it gives roughly three hits in four.
	zipfS = 1.1
	// coldStarts is how many cold starts an untraced run times (median).
	coldStarts = 7
	// sampleSize is how many seeded predicates are checked byte for byte
	// against an independently read Dataset.
	sampleSize = 32
	// firstQuery is the cold start's first cohort question; it lies
	// outside the request population.
	firstQuery = "exit == system"
	// requestsPerSecond sets each client's fixed request count from the
	// run's --seconds: 80 per client per second lasts about --seconds on a
	// 2-core 2.1 GHz Xeon. The count, not the clock, ends the loop,
	// because a cold LRU's hit ratio rises as the stream progresses: a
	// time-bounded loop on a faster machine would reach further, hit
	// more, and amplify any speed change in serve_qps.
	requestsPerSecond = 80
)

// childServer is mirad over the snapshot: read, warm, listen on loopback.
// It prints a ready line, answers "mem" lines on stdin with allocation
// counters, and shuts down when stdin closes.
func childServer(o options, in string) error {
	tr := newTracer(fmt.Sprintf("server/seed%d/pid%d", o.seed, os.Getpid()), o.trace)
	root := tr.begin("serve.cold_start", 0)
	var d *core.Dataset
	if err := tr.do("pack.read", root, func() (err error) { d, err = pack.ReadFile(in); return err }); err != nil {
		return err
	}
	srv := serve.New(experiments.NewEnvFromDataset(d), serve.Options{})
	var ws serve.WarmStats
	if err := tr.do("serve.warm", root, func() (err error) { ws, err = srv.Warm(); return err }); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	tr.end(root)

	ready := newStepOut()
	ready.Strings["addr"] = ln.Addr().String()
	ready.Values["warm_s"] = ws.Duration.Seconds()
	ready.Values["index_bytes"] = float64(ws.IndexBytes)
	ready.Spans = tr.all()
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(ready); err != nil {
		return err
	}
	lines := bufio.NewScanner(os.Stdin)
	for lines.Scan() {
		if lines.Text() == "mem" {
			m := markMem()
			if err := enc.Encode(stepOut{Values: map[string]float64{"alloc_bytes": float64(m.alloc), "gc": float64(m.gc)}}); err != nil {
				return err
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// instance is one running server child seen from the parent.
type instance struct {
	p     *childProc
	base  string
	ready stepOut
	cold  float64 // seconds from process start to the first 200 cohort
}

func startServer(ctx context.Context, o options, snap string, oc *outcome) (*instance, error) {
	p, err := startChild(ctx, o, "server", "-in", snap)
	if err != nil {
		return nil, err
	}
	inst := &instance{p: p}
	if err := p.next(&inst.ready); err != nil {
		p.kill()
		return nil, fmt.Errorf("server: %w", err)
	}
	inst.base = "http://" + inst.ready.Strings["addr"]
	tp := &http.Transport{DisableCompression: true}
	defer tp.CloseIdleConnections()
	status, src, _, err := get(ctx, &http.Client{Transport: tp, Timeout: time.Minute}, inst.cohortURL(firstQuery), false)
	inst.cold = time.Since(p.started).Seconds()
	oc.attempted++
	if err != nil || status != http.StatusOK || src == "" {
		oc.fail("cold start: first cohort: status %d, X-Cache %q, err %v", status, src, err)
	}
	return inst, nil
}

func (in *instance) cohortURL(where string) string {
	return in.base + "/v1/cohort?where=" + url.QueryEscape(where)
}

// mem asks the server for its allocation counters.
func (in *instance) mem() (alloc, gc float64, err error) {
	if _, err := io.WriteString(in.p.stdin, "mem\n"); err != nil {
		return 0, 0, err
	}
	var m stepOut
	if err := in.p.next(&m); err != nil {
		return 0, 0, err
	}
	return m.Values["alloc_bytes"], m.Values["gc"], nil
}

type cacheCounters struct {
	Hits      float64 `json:"hits"`
	Misses    float64 `json:"misses"`
	Collapsed float64 `json:"collapsed"`
	Evictions float64 `json:"evictions"`
}

func (in *instance) cacheStats(ctx context.Context, cl *http.Client) (cacheCounters, error) {
	var st struct {
		Cache cacheCounters `json:"cache"`
	}
	status, _, body, err := get(ctx, cl, in.base+"/v1/stats", true)
	if err != nil {
		return st.Cache, err
	}
	if status != http.StatusOK {
		return st.Cache, fmt.Errorf("/v1/stats: status %d", status)
	}
	return st.Cache, json.Unmarshal(body, &st)
}

// get sends one GET and reads the whole body; it keeps the body only
// when asked.
func get(ctx context.Context, cl *http.Client, u string, keep bool) (status int, xcache string, body []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	if keep {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, err
}

// request is one closed-loop request as the client saw it.
type request struct {
	pred   int     // index into the population
	at     int64   // start, in ns since the loop began
	ms     float64 // latency; +Inf when the request failed
	status int     // HTTP status; 0 after a transport error
	source string  // X-Cache
}

// loopResult is one closed-loop measurement.
type loopResult struct {
	reqs   []request
	failed int
	wall   float64
	ok     int
}

// closedLoop runs the clients against the server, each sending its fixed
// number of requests drawn from its own seeded Zipf stream.
func closedLoop(ctx context.Context, inst *instance, pop []string, o options, tr *tracer) loopResult {
	per := make([][]request, clients)
	fails := make([]int, clients)
	n := requestsPerSecond * o.seconds
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			cl := &http.Client{Transport: tp, Timeout: time.Minute}
			rng := rand.New(rand.NewSource(o.seed*1_000_003 + int64(c)))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(pop)-1))
			for k := 0; k < n; k++ {
				i := int(zipf.Uint64())
				id := tr.begin("http.cohort", 0)
				start := time.Now()
				status, src, _, err := get(ctx, cl, inst.cohortURL(pop[i]), false)
				ms := float64(time.Since(start).Nanoseconds()) / 1e6
				tr.end(id)
				if err != nil || status != http.StatusOK || src == "" {
					ms = math.Inf(1)
					fails[c]++
				}
				per[c] = append(per[c], request{pred: i, at: start.Sub(t0).Nanoseconds(), ms: ms, status: status, source: src})
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{wall: time.Since(t0).Seconds()}
	for c := range per {
		res.reqs = append(res.reqs, per[c]...)
		res.failed += fails[c]
	}
	sort.Slice(res.reqs, func(i, j int) bool { return res.reqs[i].at < res.reqs[j].at })
	res.ok = len(res.reqs) - res.failed
	return res
}

// latencies returns the latencies of the requests whose X-Cache matches
// source (all requests when source is empty).
func (l loopResult) latencies(source string) []float64 {
	var out []float64
	for _, r := range l.reqs {
		if source == "" || r.source == source {
			out = append(out, r.ms)
		}
	}
	return out
}

// servePass is one server instance driven through a closed loop.
type servePass struct {
	inst          *instance
	loop          loopResult
	before, after cacheCounters
	alloc, gc     float64
	rss           float64
	checks        []check
}

// check pairs a sampled predicate's canonical form with the report the
// server returned for it.
type check struct {
	Where  string `json:"where"`
	Report string `json:"report"`
}

// drive runs the closed loop on a started server, then asks for the
// seeded sample, then stops the server.
func drive(ctx context.Context, inst *instance, pop, sample []string, o options, tr *tracer, oc *outcome) (servePass, error) {
	sp := servePass{inst: inst}
	tp := &http.Transport{DisableCompression: true}
	defer tp.CloseIdleConnections()
	cl := &http.Client{Transport: tp, Timeout: time.Minute}
	var err error
	if sp.before, err = inst.cacheStats(ctx, cl); err != nil {
		return sp, err
	}
	alloc0, gc0, err := inst.mem()
	if err != nil {
		return sp, err
	}
	sp.loop = closedLoop(ctx, inst, pop, o, tr)
	alloc1, gc1, err := inst.mem()
	if err != nil {
		return sp, err
	}
	sp.alloc, sp.gc = alloc1-alloc0, gc1-gc0
	if sp.after, err = inst.cacheStats(ctx, cl); err != nil {
		return sp, err
	}
	oc.attempted += len(sp.loop.reqs)
	if sp.loop.failed > 0 {
		oc.fail("%d of %d cohort requests failed (non-200, 429, transport error or no X-Cache)", sp.loop.failed, len(sp.loop.reqs))
	}
	for _, where := range sample {
		oc.attempted++
		status, src, body, err := get(ctx, cl, inst.cohortURL(where), true)
		var resp check
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &resp)
		}
		if err != nil || status != http.StatusOK || src == "" {
			oc.fail("sample %q: status %d, X-Cache %q, err %v", where, status, src, err)
			continue
		}
		sp.checks = append(sp.checks, resp)
	}
	sp.rss, err = inst.p.finish()
	return sp, err
}

// requestSet is the serve path's request stream: the population in
// popularity order, each predicate's canonical form, and the seeded sample
// checked byte for byte.
type requestSet struct {
	pop, canon, sample []string
}

// newRequestSet derives the request stream from the vocabulary in dir and
// the run's seed.
func newRequestSet(o options, dir string) (requestSet, error) {
	var rs requestSet
	v, err := readVocab(dir)
	if err != nil {
		return rs, err
	}
	if rs.pop, err = population(v, o.seed); err != nil {
		return rs, err
	}
	rs.canon = make([]string, len(rs.pop))
	for i, p := range rs.pop {
		e, err := sel.Parse(p)
		if err != nil {
			return rs, fmt.Errorf("population predicate %q: %w", p, err)
		}
		rs.canon[i] = e.String()
	}
	rng := rand.New(rand.NewSource(o.seed*1_000_003 + clients)) // the stream after the clients'
	for _, i := range rng.Perm(len(rs.pop))[:sampleSize] {
		rs.sample = append(rs.sample, rs.pop[i])
	}
	return rs, nil
}

// runServe sets up the full-scale snapshot, times cold starts, and drives
// the closed loop. A traced run drives one plain and one traced server,
// replays the traced loop's misses layer by layer, and runs the report
// path and the first-touch experiments pass over the snapshot.
func runServe(ctx context.Context, o options) (*outcome, error) {
	oc := &outcome{digests: map[string]string{}, samples: map[string]int{}}
	snap, setup, setupS, err := setupCorpus(ctx, o, oc)
	if err != nil {
		return nil, err
	}
	rs, err := newRequestSet(o, o.work)
	if err != nil {
		return nil, err
	}
	oc.samples["population"] = len(rs.pop)

	// Plain pass: cold starts, the last of which serves the loop. A traced
	// run times one plain and one traced cold start.
	plain := o
	plain.trace = false
	n := coldStarts
	if o.trace {
		n = 1
	}
	var colds []float64
	var inst *instance
	for i := 0; i < n; i++ {
		if inst, err = startServer(ctx, plain, snap, oc); err != nil {
			return nil, err
		}
		defer inst.p.kill()
		colds = append(colds, inst.cold)
		if i < n-1 {
			if _, err := inst.p.finish(); err != nil {
				return nil, err
			}
		}
	}
	pass, err := drive(ctx, inst, rs.pop, rs.sample, plain, nil, oc)
	if err != nil {
		return nil, err
	}
	all := pass.loop.latencies("")
	oc.endToEnd = map[string]float64{
		"setup_s":     setupS,
		"peak_rss_mb": pass.rss,
		"path_s":      median(colds),
		"ops_per_s":   float64(pass.loop.ok) / pass.loop.wall,
		"op_p99_ms":   quantile(all, 0.99),
	}
	oc.samples["cohort_requests"] = len(pass.loop.reqs)
	oc.latency = map[string]float64{
		"cohort_p50_ms": quantile(all, 0.50),
		"cohort_p99_ms": oc.endToEnd["op_p99_ms"],
	}
	oc.samples["cold_starts"] = len(colds)
	oc.series = map[string][]float64{"path_s": colds}

	if !o.trace {
		ver, err := verify(ctx, o, snap, pass.checks, nil)
		if err != nil {
			return nil, err
		}
		checkSample(oc, pass, ver)
		return oc, nil
	}
	pl := map[string]float64{}
	tpass, err := traceServe(ctx, o, o.work, oc, pl)
	if err != nil {
		return nil, err
	}
	rp, err := reportPass(ctx, o, snap, true, oc)
	if err != nil {
		return nil, err
	}
	if err := experimentsPass(ctx, o, snap, oc); err != nil {
		return nil, err
	}
	spanLayers(pl, oc.spans)
	setupLayers(pl, setup)
	pl["report.bytes"] = rp.Values["bytes"]
	pl["runtime.alloc_mb"] = tpass.alloc / (1 << 20)
	pl["runtime.gc_cycles"] = tpass.gc
	pl["trace.overhead_s"] = tpass.inst.cold - colds[0]
	oc.latency["trace.overhead_qps"] = float64(tpass.loop.ok)/tpass.loop.wall - float64(pass.loop.ok)/pass.loop.wall
	oc.perLayer = pl
	return oc, nil
}

// traceServe drives a traced server over dir's snapshot through the closed
// loop, then replays the loop's distinct misses layer by layer while
// checking the sample, and adds the serving layer's metrics to pl.
func traceServe(ctx context.Context, o options, dir string, oc *outcome, pl map[string]float64) (servePass, error) {
	rs, err := newRequestSet(o, dir)
	if err != nil {
		return servePass{}, err
	}
	snap := pack.SnapshotPath(dir)
	tr := newTracer(fmt.Sprintf("clients/seed%d", o.seed), true)
	inst, err := startServer(ctx, o, snap, oc)
	if err != nil {
		return servePass{}, err
	}
	defer inst.p.kill()
	t, err := drive(ctx, inst, rs.pop, rs.sample, o, tr, oc)
	if err != nil {
		return t, err
	}
	oc.spans = append(oc.spans, inst.ready.Spans...)
	oc.spans = append(oc.spans, tr.all()...)
	var replay []string
	seen := map[string]bool{}
	for _, r := range t.loop.reqs {
		if c := rs.canon[r.pred]; r.source == "miss" && !seen[c] {
			seen[c] = true
			replay = append(replay, c)
		}
	}
	ver, err := verify(ctx, o, snap, t.checks, replay)
	if err != nil {
		return t, err
	}
	checkSample(oc, t, ver)
	oc.spans = append(oc.spans, ver.Spans...)
	oc.samples["replayed_misses"] = len(replay)

	d := func(f func(c cacheCounters) float64) float64 { return f(t.after) - f(t.before) }
	hits := d(func(c cacheCounters) float64 { return c.Hits })
	misses := d(func(c cacheCounters) float64 { return c.Misses })
	collapsed := d(func(c cacheCounters) float64 { return c.Collapsed })
	pl["serve.warm_s"] = inst.ready.Values["warm_s"]
	pl["core.index_bytes"] = inst.ready.Values["index_bytes"]
	pl["serve.hit_ratio"] = hits / (hits + misses + collapsed)
	pl["serve.collapsed"] = collapsed
	pl["serve.evictions"] = d(func(c cacheCounters) float64 { return c.Evictions })
	pl["cohort_p50_ms"] = quantile(t.loop.latencies(""), 0.50)
	pl["serve.hit_p50_ms"] = quantile(t.loop.latencies("hit"), 0.50)
	pl["serve.miss_p50_ms"] = quantile(t.loop.latencies("miss"), 0.50)
	pl["serve.miss_p99_ms"] = quantile(t.loop.latencies("miss"), 0.99)
	pl["runtime.alloc_kb_per_req"] = t.alloc / 1024 / float64(len(t.loop.reqs))
	pl["sel.rows_selected_frac"] = ver.Values["rows_selected_frac"]
	return t, nil
}

// checkSample records the verify child's verdict on a pass's sample and
// the sample's digest.
func checkSample(oc *outcome, p servePass, ver stepOut) {
	for _, f := range ver.Failures {
		oc.fail("%s", f)
	}
	h := sha256.New()
	for _, c := range p.checks {
		fmt.Fprintf(h, "%s\n%s\n", c.Where, c.Report)
	}
	oc.digests["sample_reports_sha256"] = hex.EncodeToString(h.Sum(nil))
	oc.samples["verified"] = len(p.checks)
}

// verifyInput is what the verify child checks and replays.
type verifyInput struct {
	Checks []check  `json:"checks"`
	Replay []string `json:"replay"`
}

func verify(ctx context.Context, o options, snap string, checks []check, replay []string) (stepOut, error) {
	var res stepOut
	b, err := json.Marshal(verifyInput{Checks: checks, Replay: replay})
	if err != nil {
		return res, err
	}
	path := filepath.Join(o.work, "verify.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return res, err
	}
	_, _, err = runOnce(ctx, o, &res, "verify", "-in", snap, "-replay", path)
	return res, err
}

// childVerify reads the snapshot independently of the server, warms it
// the way the server does, replays the traced loop's misses layer by
// layer, and checks each sampled response's report byte for byte.
func childVerify(o options, in, inputPath string) (stepOut, error) {
	res := newStepOut()
	b, err := os.ReadFile(inputPath)
	if err != nil {
		return res, err
	}
	var input verifyInput
	if err := json.Unmarshal(b, &input); err != nil {
		return res, err
	}
	d, err := pack.ReadFile(in)
	if err != nil {
		return res, err
	}
	if _, err := serve.New(experiments.NewEnvFromDataset(d), serve.Options{}).Warm(); err != nil {
		return res, err
	}

	tr := newTracer(fmt.Sprintf("miss-replay/seed%d", o.seed), o.trace)
	for _, where := range input.Replay {
		root := tr.begin("serve.miss_replay", 0)
		var expr sel.Expr
		var p *core.FusedProfile
		var buf bytes.Buffer
		err := tr.do("sel.parse", root, func() (err error) { expr, err = sel.Parse(where); return err })
		if err == nil {
			err = tr.do("core.compile", root, func() (err error) { _, _, err = d.CompileWhere(expr); return err })
		}
		if err == nil {
			err = tr.do("scan.where", root, func() (err error) { p, err = d.FusedScanWhere(expr, 0); return err })
		}
		if err == nil {
			err = tr.do("experiments.render_cohort", root, func() error { return experiments.RenderCohort(&buf, p, expr.String()) })
		}
		if err != nil {
			return res, fmt.Errorf("replay %q: %w", where, err)
		}
		tr.end(root)
	}
	res.Spans = tr.all()

	var selected, total float64
	for _, c := range input.Checks {
		expr, err := sel.Parse(c.Where)
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("sample %q: %v", c.Where, err))
			continue
		}
		js, es, err := d.CompileWhere(expr)
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("sample %q: %v", c.Where, err))
			continue
		}
		selected += cardinality(js, len(d.Jobs)) + cardinality(es, len(d.Events))
		total += float64(len(d.Jobs) + len(d.Events))
		p, err := d.FusedScanWhere(expr, 0)
		var buf bytes.Buffer
		if err == nil {
			err = experiments.RenderCohort(&buf, p, expr.String())
		}
		if err != nil || c.Where != expr.String() || buf.String() != c.Report {
			res.Failures = append(res.Failures, fmt.Sprintf("sample %q: served report differs from RenderCohort(FusedScanWhere) (err %v)", c.Where, err))
		}
	}
	res.Values["rows_selected_frac"] = selected / total
	return res, nil
}

// cardinality counts a selection; nil means the table is unconstrained.
func cardinality(b *bitmap.Bitmap, all int) float64 {
	if b == nil {
		return float64(all)
	}
	return float64(b.Cardinality())
}
