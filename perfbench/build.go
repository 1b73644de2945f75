package main

import (
	"fmt"
	"runtime"
	"time"

	"sepdc"
	"sepdc/internal/kdtree"
	"sepdc/internal/knngraph"
	"sepdc/internal/pointgen"
	"sepdc/internal/pts"
	"sepdc/internal/separator"
	"sepdc/internal/xrand"
)

// Build workload parameters.
const (
	buildN = 100_000
	buildD = 2
	buildK = 4
)

// genPoints draws n deduplicated uniform-cube points from the seed, in the
// [][]float64 form the public API takes.
func genPoints(n, d int, seed uint64) ([][]float64, error) {
	pv, err := pointgen.Generate(pointgen.UniformCube, n, d, xrand.New(seed))
	if err != nil {
		return nil, err
	}
	pv = pointgen.Dedup(pv)
	points := make([][]float64, len(pv))
	for i, p := range pv {
		points[i] = p
	}
	return points, nil
}

// runBuild times repeated BuildKNNGraph calls (sphere algorithm) on one
// seeded point set, each with a fresh algorithm seed, and checks every
// graph against the kd-tree graph.
func runBuild(cfg *config) (*outcome, error) {
	out := newOutcome()
	out.params["n"] = buildN
	out.params["d"] = buildD
	out.params["k"] = buildK
	out.params["dist"] = string(pointgen.UniformCube)
	out.params["algorithm"] = string(sepdc.Sphere)
	out.params["workers"] = cfg.nproc

	// Set-up is input generation; repeated so its median is steady.
	var setup samples
	var points [][]float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		p, err := genPoints(buildN, buildD, cfg.seed)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		points = p
	}
	out.e2e["setup_s"] = setup.median()

	ref, err := sepdc.BuildKNNGraph(points, buildK, &sepdc.Options{Algorithm: sepdc.KDTree})
	if err != nil {
		return nil, fmt.Errorf("reference graph: %w", err)
	}

	// build runs one checked sphere build and returns its wall time.
	build := func(i int, opts sepdc.Options) (time.Duration, *sepdc.Graph) {
		opts.Seed = cfg.seed*1_000_003 + uint64(i)
		// Collect the previous build's garbage outside the timed region,
		// so each build starts from the same heap.
		runtime.GC()
		start := time.Now()
		g, err := sepdc.BuildKNNGraph(points, buildK, &opts)
		took := time.Since(start)
		out.attempted++
		if err != nil {
			out.failed++
			out.note("build %d: %v", i, err)
			return 0, nil
		}
		if !sepdc.Equal(g, ref) {
			out.failed++
			out.wrong++
			out.note("build %d: graph differs from the kd-tree graph", i)
			return 0, nil
		}
		return took, g
	}

	// One unmeasured build starts the worker pool and grows the heap.
	build(-1, sepdc.Options{Workers: cfg.nproc})

	if cfg.trace {
		traceBuild(cfg, out, points, build)
		return out, nil
	}

	var times samples
	deadline := time.Now().Add(cfg.window)
	for i := 0; time.Now().Before(deadline) || len(times) < 3; i++ {
		if took, g := build(i, sepdc.Options{Workers: cfg.nproc}); g != nil {
			times = append(times, took.Seconds())
		}
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	out.e2e["peak_rss_mb"] = rss
	out.e2e["p50_ms"] = times.median() * 1e3
	out.e2e["answers_per_s"] = float64(len(points)) / times.median()
	out.named["build_s_p50"] = named{times.median(), "s", len(times)}
	out.addTail("build_s", times, "s")
	return out, nil
}

// traceBuild cycles plain, observed (Options.Observe) and one-worker
// builds for the window, then times the standalone layer calls.
func traceBuild(cfg *config, out *outcome, points [][]float64,
	build func(int, sepdc.Options) (time.Duration, *sepdc.Graph)) {

	var plain, observed, single samples
	var divide, correct, base, recurse samples
	var punts, trials, useful, completed, visited, steps, depth samples
	var allocMB, allocs samples
	var ms0, ms1 runtime.MemStats
	deadline := time.Now().Add(cfg.window)
	for i := 0; time.Now().Before(deadline) || len(plain) < 2; i++ {
		runtime.ReadMemStats(&ms0)
		if took, g := build(i, sepdc.Options{Workers: cfg.nproc}); g != nil {
			runtime.ReadMemStats(&ms1)
			plain = append(plain, took.Seconds())
			allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
		}
		if took, g := build(i, sepdc.Options{Workers: cfg.nproc, Observe: true}); g != nil {
			observed = append(observed, took.Seconds())
			st := g.Stats()
			r := st.Report
			divide = append(divide, r.PhaseSeconds("divide"))
			correct = append(correct, r.PhaseSeconds("correct"))
			base = append(base, r.PhaseSeconds("base"))
			recurse = append(recurse, r.PhaseSeconds("recurse"))
			punts = append(punts, float64(r.Counter("threshold_punts")+r.Counter("query_corrections")+r.Counter("march_aborts")))
			trials = append(trials, float64(r.Counter("separator_trials")))
			useful = append(useful, float64(r.Counter("nodes"))/float64(max(1, r.Counter("separator_trials"))))
			fast, aborts := r.Counter("fast_corrections"), r.Counter("march_aborts")
			completed = append(completed, float64(fast)/float64(max(1, fast+aborts)))
			visited = append(visited, r.Histograms["march_visited"].Mean())
			steps = append(steps, float64(st.SimulatedSteps))
			depth = append(depth, float64(st.MaxDepth))
		}
		if took, g := build(i, sepdc.Options{Workers: 1}); g != nil {
			single = append(single, took.Seconds())
		}
	}
	L := out.layer
	L["core.divide_s"] = divide.median()
	L["core.correct_s"] = correct.median()
	L["core.base_s"] = base.median()
	L["core.recurse_s"] = recurse.median()
	L["core.punts"] = punts.median()
	L["separator.trials"] = trials.median()
	L["separator.useful_ratio"] = useful.median()
	L["march.completed_ratio"] = completed.median()
	L["march.visited_mean"] = visited.median()
	L["vm.sim_steps"] = steps.median()
	L["vm.max_depth"] = depth.median()
	L["vm.speedup_nproc_vs_1"] = single.median() / plain.median()
	L["build.alloc_mb"] = allocMB.median()
	L["build.allocs"] = allocs.median()
	L["trace.overhead_pct"] = (observed.median()/plain.median() - 1) * 100

	// Standalone layer calls on the same input.
	ps, err := pts.FromSlices(points)
	if err != nil {
		out.failed++
		out.note("point set: %v", err)
		return
	}
	var knnT, listsT, rootT samples
	for i := 0; i < 3; i++ {
		start := time.Now()
		lists := kdtree.BuildFlat(ps, kdtree.DefaultLeafSize).AllKNN(buildK)
		knnT = append(knnT, time.Since(start).Seconds())
		start = time.Now()
		knngraph.FromLists(lists, buildK)
		listsT = append(listsT, ms(time.Since(start)))
	}
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := separator.FindGoodFlat(ps, xrand.New(cfg.seed+uint64(i)), nil); err != nil {
			out.failed++
			out.note("root separator: %v", err)
			return
		}
		rootT = append(rootT, ms(time.Since(start)))
	}
	L["kdtree.allknn_s"] = knnT.median()
	L["knngraph.from_lists_ms"] = listsT.median()
	L["separator.root_find_ms"] = rootT.median()
	out.attempted += int64(len(knnT) + len(rootT))
}
