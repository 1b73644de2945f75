// Command perfbench is the repository benchmark: four workloads that drive
// the k-NN graph build, the in-process covering-ball query engine, and the
// knnserve HTTP front end (plain, and under hot swaps) from outside, check
// every answer, and print end-to-end metrics — or, with --trace 1, the
// per-layer metrics of the same workload.
//
// Run it through perfbench/run.sh, which builds this program and
// cmd/knnserve from source first:
//
//	bash perfbench/run.sh --workload serve --seed 3 --seconds 20 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is a
// report with the environment header, the workload's parameters and its
// metrics under their per-workload names with sample counts. The metric
// definitions, per-workload parameters and the layer → end-to-end
// predictions are in perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"sepdc"
)

// metricSpec names one metric and its unit. The lists below are the
// single source of the metric names BENCHMARK.json declares.
type metricSpec struct{ name, unit string }

// endToEnd is printed by every untraced run, whatever the workload; each
// workload defines every entry (README.md has the per-workload meaning).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"answers_per_s", "1/s"},
}

// perLayer is printed by every traced run. A layer the workload does not
// run reports 0: it did no work there.
var perLayer = []metricSpec{
	{"core.divide_s", "s"},
	{"core.correct_s", "s"},
	{"core.base_s", "s"},
	{"core.recurse_s", "s"},
	{"core.punts", "count"},
	{"separator.trials", "count"},
	{"separator.useful_ratio", "ratio"},
	{"separator.root_find_ms", "ms"},
	{"march.completed_ratio", "ratio"},
	{"march.visited_mean", "count"},
	{"vm.sim_steps", "count"},
	{"vm.max_depth", "count"},
	{"vm.speedup_nproc_vs_1", "ratio"},
	{"kdtree.allknn_s", "s"},
	{"knngraph.from_lists_ms", "ms"},
	{"build.alloc_mb", "MB"},
	{"build.allocs", "count"},
	{"nbrsys.kneighborhood_s.d2", "s"},
	{"nbrsys.kneighborhood_s.d3", "s"},
	{"septree.build_s.d2", "s"},
	{"septree.build_s.d3", "s"},
	{"septree.freeze_s.d2", "s"},
	{"septree.freeze_s.d3", "s"},
	{"septree.stored_balls_per_point.d2", "count"},
	{"septree.stored_balls_per_point.d3", "count"},
	{"septree.descend_ns_per_query.d2", "ns"},
	{"septree.descend_ns_per_query.d3", "ns"},
	{"septree.scan_ns_per_query.d2", "ns"},
	{"septree.scan_ns_per_query.d3", "ns"},
	{"septree.nodes_per_query.d2", "count"},
	{"septree.nodes_per_query.d3", "count"},
	{"septree.leaf_scanned_per_query.d2", "count"},
	{"septree.leaf_scanned_per_query.d3", "count"},
	{"vec.dist_evals_per_query.d2", "count"},
	{"vec.dist_evals_per_query.d3", "count"},
	{"vec.bytes_per_query.d2", "B"},
	{"vec.bytes_per_query.d3", "B"},
	{"loadgen.late_ms_p99", "ms"},
	{"serveproto.encode_us", "us"},
	{"serveproto.decode_us", "us"},
	{"knnserve.queue_ms_p50", "ms"},
	{"knnserve.queue_ms_p99", "ms"},
	{"knnserve.coalesce_ms_p50", "ms"},
	{"knnserve.coalesce_ms_p99", "ms"},
	{"knnserve.pass_ms_p50", "ms"},
	{"knnserve.pass_ms_p99", "ms"},
	{"knnserve.http_ms_p50", "ms"},
	{"knnserve.http_ms_p99", "ms"},
	{"knnserve.queries_per_pass", "count"},
	{"knnserve.rejected_ratio", "ratio"},
	{"knnserve.cpu_ms_per_kq", "ms"},
	{"knnserve.swap_build_ms", "ms"},
	{"snapshot.release_lag", "count"},
	{"trace.overhead_pct", "%"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	nproc    int    // build workers, Batcher strands, serve connections
	server   string // knnserve binary
}

// named is one metric under its per-workload name (README.md's table),
// with the number of samples behind it.
type named struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	wrong             int64 // wrong answers, also counted in failed
	params            map[string]any
	e2e               map[string]float64
	layer             map[string]float64
	named             map[string]named
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{
		params: map[string]any{},
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		named:  map[string]named{},
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*config) (*outcome, error){
	"build":      runBuild,
	"query":      runQuery,
	"serve":      runServe,
	"serve-swap": runServeSwap,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type envHeader struct {
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	KernelTier  string `json:"kernel_tier"`
	CPUFeatures string `json:"cpu_features"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
}

type reportLine struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Seconds  float64          `json:"seconds"`
	Trace    bool             `json:"trace"`
	Env      envHeader        `json:"env"`
	Params   map[string]any   `json:"params"`
	Named    map[string]named `json:"named_metrics,omitempty"`
	Notes    []string         `json:"notes,omitempty"`
}

func main() {
	nproc := runtime.NumCPU()
	var (
		workload = flag.String("workload", "", "build | query | serve | serve-swap")
		seed     = flag.Uint64("seed", 1, "input seed: points, queries and request traffic")
		seconds  = flag.Float64("seconds", 20, "measured window per run")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		server   = flag.String("server", ".bench_build/bin/knnserve", "knnserve binary")
		commit   = flag.String("commit", "unknown", "source commit, recorded in the report")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok {
		fail("unknown workload %q", *workload)
	}
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fail("--seconds must be positive")
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		nproc:    nproc,
		server:   *server,
	}

	out, err := run(cfg)
	if err != nil {
		fail("%s: %v", *workload, err)
	}

	tier, cpu := sepdc.KernelInfo()
	rep := reportLine{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Seconds:  *seconds,
		Trace:    cfg.trace,
		Env: envHeader{
			NumCPU: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
			KernelTier: tier, CPUFeatures: cpu,
			GoVersion: runtime.Version(), Commit: *commit,
		},
		Params: out.params,
		Named:  out.named,
		Notes:  out.notes,
	}
	res := result{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricOut{},
	}
	if cfg.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricOut{out.layer[m.name], m.unit}
		}
		for name := range out.layer {
			if !hasSpec(perLayer, name) {
				fail("internal: layer metric %q has no spec", name)
			}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := out.e2e[m.name]
			if !ok {
				fail("internal: %s did not measure %s", *workload, m.name)
			}
			res.Metrics[m.name] = metricOut{v, m.unit}
		}
	}
	if res.Attempted < 1 {
		fail("%s: no operation attempted", *workload)
	}

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		fail("write report: %v", err)
	}
	if err := enc.Encode(res); err != nil {
		fail("write result: %v", err)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d wrong answers\n", *workload, out.wrong)
		os.Exit(1)
	}
}

func hasSpec(specs []metricSpec, name string) bool {
	for _, s := range specs {
		if s.name == name {
			return true
		}
	}
	return false
}
