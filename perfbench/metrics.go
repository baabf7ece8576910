package main

import "fmt"

// endToEndMetrics are what an untraced run prints, on every workload. Each
// names what a user of the workload's command sees; README.md gives the
// per-workload meaning (path_s is seed → snapshot on generate, snapshot →
// last rendered byte on report, snapshot → first 200 on serve).
var endToEndMetrics = []string{"setup_s", "peak_rss_mb", "path_s", "ops_per_s", "op_p99_ms"}

// perLayerMetrics are what a traced run prints, on every workload. A traced
// run takes the workload's own path and then one traced pass of each path
// it does not take, on the workload's own corpus, so that every layer is
// measured on every workload.
var perLayerMetrics = append([]string{
	"sim.generate_s", "sim.jobs_per_s",
	"joblog.write_s", "tasklog.write_s", "raslog.write_s", "iolog.write_s",
	"core.dataset_s", "pack.write_s", "pack.bytes_per_row", "pack.read_s",
	"experiments.runall_s", "core.takeaways_s", "report.render_s", "report.bytes",
	"serve.warm_s", "core.index_bytes",
	"serve.hit_ratio", "serve.collapsed", "serve.evictions",
	"cohort_p50_ms", "serve.hit_p50_ms", "serve.miss_p50_ms", "serve.miss_p99_ms",
	"sel.parse_us", "sel.rows_selected_frac", "core.compile_ms", "scan.where_ms",
	"experiments.render_cohort_ms",
	"runtime.alloc_mb", "runtime.gc_cycles", "runtime.alloc_kb_per_req",
	"trace.overhead_s",
}, experimentMetrics()...)

// spanMetrics maps a per-layer metric to the span it is the median
// duration of, and the factor from seconds to its unit.
var spanMetrics = map[string]struct {
	span  string
	scale float64
}{
	"sim.generate_s":               {"sim.generate", 1},
	"joblog.write_s":               {"joblog.write", 1},
	"tasklog.write_s":              {"tasklog.write", 1},
	"raslog.write_s":               {"raslog.write", 1},
	"iolog.write_s":                {"iolog.write", 1},
	"core.dataset_s":               {"core.dataset", 1},
	"pack.write_s":                 {"pack.write", 1},
	"pack.read_s":                  {"pack.read", 1},
	"experiments.runall_s":         {"experiments.runall", 1},
	"core.takeaways_s":             {"core.takeaways", 1},
	"report.render_s":              {"report.render", 1},
	"sel.parse_us":                 {"sel.parse", 1e6},
	"core.compile_ms":              {"core.compile", 1e3},
	"scan.where_ms":                {"scan.where", 1e3},
	"experiments.render_cohort_ms": {"experiments.render_cohort", 1e3},
}

// numExperiments is the size of the E1–E23 suite.
const numExperiments = 23

func experimentMetrics() []string {
	out := make([]string, numExperiments)
	for i := range out {
		out[i] = fmt.Sprintf("experiments.E%d_s", i+1)
	}
	return out
}

// spanLayers fills every span-derived per-layer metric from the run's spans.
func spanLayers(pl map[string]float64, spans []span) {
	for name, m := range spanMetrics {
		pl[name] = median(spanSeconds(spans, m.span)) * m.scale
	}
	for i := 1; i <= numExperiments; i++ {
		pl[fmt.Sprintf("experiments.E%d_s", i)] = median(spanSeconds(spans, fmt.Sprintf("experiments.E%d", i)))
	}
}

var metricUnits = func() map[string]string {
	u := map[string]string{
		"setup_s":     "s",
		"peak_rss_mb": "MB",
		"path_s":      "s",
		"ops_per_s":   "1/s",
		"op_p99_ms":   "ms",

		"sim.generate_s":               "s",
		"sim.jobs_per_s":               "1/s",
		"joblog.write_s":               "s",
		"tasklog.write_s":              "s",
		"raslog.write_s":               "s",
		"iolog.write_s":                "s",
		"core.dataset_s":               "s",
		"pack.write_s":                 "s",
		"pack.bytes_per_row":           "B/row",
		"pack.read_s":                  "s",
		"experiments.runall_s":         "s",
		"core.takeaways_s":             "s",
		"report.render_s":              "s",
		"report.bytes":                 "B",
		"runtime.alloc_mb":             "MB",
		"runtime.gc_cycles":            "count",
		"runtime.alloc_kb_per_req":     "KB/req",
		"trace.overhead_s":             "s",
		"serve.warm_s":                 "s",
		"core.index_bytes":             "B",
		"serve.hit_ratio":              "ratio",
		"serve.collapsed":              "count",
		"serve.evictions":              "count",
		"cohort_p50_ms":                "ms",
		"serve.hit_p50_ms":             "ms",
		"serve.miss_p50_ms":            "ms",
		"serve.miss_p99_ms":            "ms",
		"sel.parse_us":                 "us",
		"sel.rows_selected_frac":       "ratio",
		"core.compile_ms":              "ms",
		"scan.where_ms":                "ms",
		"experiments.render_cohort_ms": "ms",
	}
	for _, m := range experimentMetrics() {
		u[m] = "s"
	}
	return u
}()
