// Command knnbench runs the BuildKNNGraph benchmark grid (the same
// algorithm × n × d × k grid as BenchmarkBuildKNNGraph in bench_test.go)
// and writes a machine-readable BENCH_knn.json next to the repo root.
//
// The emitted file also carries the recorded baseline of the pre-flat-storage
// seed (commit 267ddc0), measured back-to-back with the current code on the
// same machine, so the performance claim is auditable:
//
//	go run ./cmd/knnbench -out BENCH_knn.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"sepdc"
	"sepdc/internal/obs"
	"sepdc/internal/pointgen"
	"sepdc/internal/xrand"
)

// Result is one grid cell's measurement. Observed is filled from one extra
// non-timed instrumented run for the divide-and-conquer algorithms: per-
// phase wall times (divide/recurse/correct/base), the deterministic trial/
// punt counters, and the march/crossing-ball histograms.
type Result struct {
	Algorithm    string           `json:"algorithm"`
	Procs        int              `json:"procs"` // GOMAXPROCS and Options.Workers for the run
	N            int              `json:"n"`
	D            int              `json:"d"`
	K            int              `json:"k"`
	Iterations   int              `json:"iterations"`
	NsPerOp      int64            `json:"ns_per_op"`
	AllocsPerOp  int64            `json:"allocs_per_op"`
	BytesPerOp   int64            `json:"bytes_per_op"`
	PointsPerSec float64          `json:"points_per_sec"`
	Observed     *obs.BuildReport `json:"observed,omitempty"`
}

// Env records the machine and build the numbers were taken on.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model,omitempty"`
	GitCommit  string `json:"git_commit,omitempty"`
	// CPUFeatures and KernelTier pin which distance-kernel dispatch the
	// numbers were taken under: the detected vector features
	// ("avx,avx2,fma,..." or "none") and the tier the process resolved
	// ("asm", "unrolled", or "generic" — KNN_KERNELS overrides).
	CPUFeatures string `json:"cpu_features,omitempty"`
	KernelTier  string `json:"kernel_tier,omitempty"`
}

// Report is the whole BENCH_knn.json document.
type Report struct {
	Generated  string         `json:"generated"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Env        Env            `json:"env"`
	Note       string         `json:"note"`
	Baseline   []Result       `json:"baseline"`
	Results    []Result       `json:"results"`
	Query      []QueryResult  `json:"query,omitempty"`
	Obs        []ObsOverhead  `json:"obs_overhead,omitempty"`
	Journal    *JournalBench  `json:"journal,omitempty"`
	Kernels    []KernelResult `json:"kernels,omitempty"`
	Layout     []LayoutResult `json:"layout,omitempty"`
}

// captureEnv gathers the environment header: toolchain, CPU shape, the CPU
// model from /proc/cpuinfo (Linux; absent elsewhere), and the git commit
// from build info (module builds) or the working tree (go run).
func captureEnv() Env {
	env := Env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				env.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.GitCommit = s.Value
				break
			}
		}
	}
	if env.GitCommit == "" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.GitCommit = strings.TrimSpace(string(out))
		}
	}
	env.KernelTier, env.CPUFeatures = sepdc.KernelInfo()
	return env
}

// baseline holds the seed measurements (commit 267ddc0, `go test -bench
// 'BuildKNNGraph/algo=sphere/n=10000/d=2/k=4' -benchtime 15x`) taken in the
// same session as the current-code numbers recorded in Results. They are
// static by design: the seed tree no longer exists in the working copy.
var baseline = []Result{
	{Algorithm: "sphere", Procs: 1, N: 10000, D: 2, K: 4, Iterations: 15,
		NsPerOp: 119861240, AllocsPerOp: 1224674, BytesPerOp: 73158294, PointsPerSec: 83430},
	{Algorithm: "kdtree", Procs: 1, N: 10000, D: 2, K: 4, Iterations: 10,
		NsPerOp: 28914015, AllocsPerOp: 92500, BytesPerOp: 14748935, PointsPerSec: 345853},
}

type cfg struct {
	algo    sepdc.Algorithm
	n, d, k int
}

var grid = []cfg{
	{sepdc.Sphere, 1 << 13, 2, 4},
	{sepdc.Sphere, 10000, 2, 4},
	{sepdc.Sphere, 10000, 3, 4},
	{sepdc.Hyperplane, 10000, 2, 4},
	{sepdc.KDTree, 10000, 2, 4},
	{sepdc.Brute, 2048, 2, 4},
}

func measure(c cfg, iters, procs int) (Result, error) {
	// Same generator and seed recipe as bench_test.go, so `go test -bench
	// BuildKNNGraph` and knnbench report the same workload.
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, c.n, c.d, xrand.New(uint64(c.n*31+c.d))))
	points := make([][]float64, len(pts))
	for i, p := range pts {
		points[i] = p
	}
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	opts := &sepdc.Options{Algorithm: c.algo, Seed: 42, Workers: procs}
	run := func() error {
		_, err := sepdc.BuildKNNGraph(points, c.k, opts)
		return err
	}
	// Warm up pools and the allocator once before measuring.
	if err := run(); err != nil {
		return Result{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := run(); err != nil {
			return Result{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	res := Result{
		Algorithm:    string(c.algo),
		Procs:        procs,
		N:            len(points),
		D:            c.d,
		K:            c.k,
		Iterations:   iters,
		NsPerOp:      elapsed.Nanoseconds() / int64(iters),
		AllocsPerOp:  int64(after.Mallocs-before.Mallocs) / int64(iters),
		BytesPerOp:   int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
		PointsPerSec: float64(len(points)) * float64(iters) / elapsed.Seconds(),
	}
	// One extra observed (non-timed) run for the divide-and-conquer
	// algorithms: per-phase wall times and the paper-quantity counters and
	// histograms, kept out of the measured loop so the instrumentation
	// cannot color the ns/op numbers.
	if c.algo == sepdc.Sphere || c.algo == sepdc.Hyperplane {
		obsOpts := *opts
		obsOpts.Observe = true
		g, err := sepdc.BuildKNNGraph(points, c.k, &obsOpts)
		if err != nil {
			return Result{}, err
		}
		res.Observed = g.Stats().Report
	}
	return res, nil
}

// remeasureObs re-runs only the obs_overhead and journal sections and
// merges them into the existing report at path.
func remeasureObs(path string, queries, queryIters int) error {
	if path == "-" {
		return fmt.Errorf("-only obs needs a real -out file to merge into")
	}
	or, err := runObsBench(queries, queryIters)
	if err != nil {
		return fmt.Errorf("obs bench: %w", err)
	}
	jb, err := runJournalBench(queries, 50)
	if err != nil {
		return fmt.Errorf("journal bench: %w", err)
	}
	return mergeSections(path, map[string]any{"obs_overhead": or, "journal": jb},
		"obs_overhead+journal remeasured via -only obs (other sections predate it); "+
			"obs_overhead modes = nil / observed (one serving journal at the production defaults) / "+
			"traced (observed plus a trace context on every query, every 16th request sampled): "+
			"traced_overhead_pct is the whole serving telemetry stack over nil, traced_vs_obs_pct the tracing layer alone")
}

// remeasureKernels re-runs only the dims-driven sections — kernels and
// layout — and merges them into the existing report at path, refreshing
// the env header (the kernel columns are meaningless without knowing
// which tier and CPU produced them).
func remeasureKernels(path string, dims []int) error {
	if path == "-" {
		return fmt.Errorf("-only kernels needs a real -out file to merge into")
	}
	if len(dims) == 0 {
		return fmt.Errorf("-only kernels with the sections disabled (-dims 0) measures nothing")
	}
	kr := runKernelBench(dims)
	lr, err := runLayoutBench(dims, 2048, 25)
	if err != nil {
		return fmt.Errorf("layout bench: %w", err)
	}
	return mergeSections(path, map[string]any{"kernels": kr, "layout": lr, "env": captureEnv()},
		"kernels+layout remeasured via -only kernels (other sections predate it); layout ref = "+
			"the generic kernel tier, unblocked, on the same pair-blocked structure as opt (the only node layout)")
}

// mergeSections overwrites the given top-level sections of the existing
// report at path, refreshes "generated", and appends note to the report
// note once. The merge is over raw JSON, so every other key — including
// sections other tools own, such as cmd/knnload's "serve" — survives
// verbatim.
func mergeSections(path string, sections map[string]any, note string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read existing report: %w", err)
	}
	doc := map[string]json.RawMessage{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("parse existing report %s: %w", path, err)
	}
	var prev string
	if n, ok := doc["note"]; ok {
		if err := json.Unmarshal(n, &prev); err != nil {
			return fmt.Errorf("parse existing report note: %w", err)
		}
	}
	if !strings.Contains(prev, note) {
		prev += "; " + note
	}
	sections["note"] = prev
	sections["generated"] = time.Now().UTC().Format(time.RFC3339)
	for key, v := range sections {
		if doc[key], err = json.Marshal(v); err != nil {
			return err
		}
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

func main() {
	out := flag.String("out", "BENCH_knn.json", "output file (- for stdout)")
	iters := flag.Int("iters", 15, "measured iterations per grid cell")
	queries := flag.Int("queries", 4096, "queries per serving-benchmark pass (0 disables the query section)")
	queryIters := flag.Int("query-iters", 20, "measured passes per query-serving cell")
	procsFlag := flag.String("procs", "", "comma-separated GOMAXPROCS sweep for the build grid and batch strands (default \"1,4,NumCPU\" deduplicated; entries above NumCPU are skipped)")
	dimsFlag := flag.String("dims", "", "comma-separated dimension sweep for the kernels/layout sections (default \"2,3,4,5,6,7,8\"; empty string keeps the default, \"0\" disables the sections)")
	only := flag.String("only", "", "re-measure only the named section and merge into the existing -out file (\"obs\" = obs_overhead + journal, \"kernels\" = kernels + layout); every other top-level key is preserved verbatim")
	flag.Parse()

	procs, err := parseProcs(*procsFlag, runtime.NumCPU())
	if err != nil {
		fmt.Fprintln(os.Stderr, "knnbench:", err)
		os.Exit(1)
	}
	dims, err := parseDims(*dimsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "knnbench:", err)
		os.Exit(1)
	}

	// Merge mode: re-measure one section against the committed record
	// without paying for a full-grid regeneration (hours on small hosts).
	if *only != "" {
		var err error
		switch *only {
		case "obs":
			err = remeasureObs(*out, *queries, *queryIters)
		case "kernels":
			err = remeasureKernels(*out, dims)
		default:
			err = fmt.Errorf("unknown -only section %q (want \"obs\" or \"kernels\")", *only)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "knnbench:", err)
			os.Exit(1)
		}
		return
	}

	rep := Report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Env:        captureEnv(),
		Note: "baseline = seed commit 267ddc0 (pre flat-storage), measured back-to-back " +
			"with results on the same machine; grid matches BenchmarkBuildKNNGraph, each " +
			"cell swept over -procs (GOMAXPROCS + Options.Workers pinned together); " +
			"observed = one extra instrumented (Observe: true) run per DNC cell, not timed; " +
			"query = covering-ball serving over one structure per cell — frozen " +
			"sequential, batch engine swept over procs 1/4/NumCPU with GOMAXPROCS pinned " +
			"(procs above num_cpu skipped: oversubscribed cells time the scheduler); " +
			"query ns/query and qps are the fastest of query-iters identically-sized timed " +
			"passes taken round-robin across modes (interleaved minimum: noise-robust on " +
			"shared hosts and immune to multi-second skew, same work per pass in every mode); " +
			"obs_overhead = the same interleaved-minimum protocol comparing a nil-observer " +
			"batch engine against one observed by a serving journal at the production " +
			"defaults (one wide event per query, 1 in 16 timed) and one additionally traced " +
			"(every query carrying a trace context, every 16th request sampled), on the " +
			"largest query cells (0 allocs per pass); " +
			"journal = drain throughput with a concurrent consumer and ring-overwrite rate " +
			"with none, over a deliberately small 1024-event ring; " +
			"kernels = per-dimension distance-kernel micro-bench (generic fallback vs unrolled vs " +
			"four-point vs the AVX2 assembly eight-lane forms where the CPU supports them, each captured " +
			"under an explicitly pinned dispatch tier, interleaved minimum over identical operand " +
			"streams; asm_speedup is best-asm-form vs the unrolled four-point kernel); layout = whole-path " +
			"serving per dimension over a correlated query stream (runs of 8 jittered queries per " +
			"anchor — the shape the correction's closed covering queries and clustered external traffic " +
			"produce), both over one structure in the pair-blocked node layout (the only one): ref " +
			"(the structure re-frozen under the generic kernel tier, per-query scans and descents, " +
			"no query blocking) vs opt (specialized kernels/descents + query-blocked scans at " +
			"block_width, 1 at d<=3 where the inline whole-path scans already win), answers " +
			"cross-checked identical before timing, phase means from " +
			"non-timed instrumented passes",
	}
	rep.Baseline = baseline
	for _, c := range grid {
		for _, p := range procs {
			r, err := measure(c, *iters, p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "knnbench: %s n=%d d=%d k=%d procs=%d: %v\n", c.algo, c.n, c.d, c.k, p, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "%-10s procs=%-2d n=%-6d d=%d k=%d  %12d ns/op  %9d allocs/op  %9.0f points/sec\n",
				r.Algorithm, r.Procs, r.N, r.D, r.K, r.NsPerOp, r.AllocsPerOp, r.PointsPerSec)
			rep.Results = append(rep.Results, r)
		}
	}
	if *queries > 0 {
		qr, err := runQueryBench(*queries, *queryIters, procs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "knnbench: query bench:", err)
			os.Exit(1)
		}
		rep.Query = qr
		or, err := runObsBench(*queries, *queryIters)
		if err != nil {
			fmt.Fprintln(os.Stderr, "knnbench: obs bench:", err)
			os.Exit(1)
		}
		rep.Obs = or
		jb, err := runJournalBench(*queries, 50)
		if err != nil {
			fmt.Fprintln(os.Stderr, "knnbench: journal bench:", err)
			os.Exit(1)
		}
		rep.Journal = jb
	}
	if len(dims) > 0 {
		rep.Kernels = runKernelBench(dims)
		lr, err := runLayoutBench(dims, 2048, 25)
		if err != nil {
			fmt.Fprintln(os.Stderr, "knnbench: layout bench:", err)
			os.Exit(1)
		}
		rep.Layout = lr
	}
	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "knnbench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "knnbench:", err)
		os.Exit(1)
	}
}
