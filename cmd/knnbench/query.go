package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/septree"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

// QueryResult is one query-serving measurement: one engine (pointer tree,
// frozen flat layout, or the batched engine over the frozen layout) at one
// parallelism setting, serving the same query stream.
type QueryResult struct {
	Mode          string  `json:"mode"`  // pointer | frozen | batch
	Procs         int     `json:"procs"` // GOMAXPROCS / batch strands (1 for the sequential modes)
	N             int     `json:"n"`
	D             int     `json:"d"`
	K             int     `json:"k"`
	NumQueries    int     `json:"num_queries"`
	Iterations    int     `json:"iterations"`
	NsPerQuery    int64   `json:"ns_per_query"`
	QPS           float64 `json:"qps"`
	AllocsPerOp   int64   `json:"allocs_per_batch"` // allocations per full pass over the stream
	NodesPerQuery float64 `json:"nodes_per_query"`  // septree nodes visited (frozen traversal)
	LeafPerQuery  float64 `json:"leaf_scans_per_query"`
}

// queryGrid is the serving workload: the build grid's sphere cells, plus
// 10x-larger structures where the layouts diverge hardest — at n=10000
// the pointer tree still mostly fits in cache, while at n=100000 its
// scattered nodes miss on nearly every hop and the flat arrays keep
// their locality.
type queryCfg struct {
	n, d, k int
}

var queryGrid = []queryCfg{
	{10000, 2, 4},
	{10000, 3, 4},
	{100000, 2, 4},
	{100000, 3, 4},
}

// parseProcs turns the -procs flag into the deduplicated sweep list,
// defaulting to 1, 4, numCPU when the flag is empty. Entries above
// numCPU are dropped with a note on stderr: an oversubscribed cell
// measures the scheduler time-slicing strands, not the build scaling.
func parseProcs(spec string, numCPU int) ([]int, error) {
	procs := []int{1, 4, numCPU}
	if spec != "" {
		procs = procs[:0]
		for _, field := range strings.Split(spec, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || p < 1 {
				return nil, fmt.Errorf("bad -procs entry %q", field)
			}
			procs = append(procs, p)
		}
	}
	seen := map[int]bool{}
	out := procs[:0]
	for _, p := range procs {
		switch {
		case p > numCPU:
			fmt.Fprintf(os.Stderr, "knnbench: skipping procs=%d: only %d CPUs\n", p, numCPU)
		case !seen[p]:
			seen[p] = true
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-procs %q: every entry exceeds the %d CPUs", spec, numCPU)
	}
	return out, nil
}

// measureQueries benchmarks the three serving engines over one structure.
// The pointer and frozen modes run sequentially (procs=1); the batch
// engine is swept over the -procs settings with GOMAXPROCS pinned to
// match, so the JSON records scaling honestly on whatever machine ran it.
func measureQueries(c queryCfg, numQueries, iters int, procs []int) ([]QueryResult, error) {
	g := xrand.New(uint64(c.n*31 + c.d))
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, c.n, c.d, g.Split()))
	sys := nbrsys.KNeighborhood(pts, c.k)
	tree, err := septree.Build(sys, xrand.New(42), nil)
	if err != nil {
		return nil, err
	}
	frozen, err := septree.Freeze(tree)
	if err != nil {
		return nil, err
	}
	queries := make([][]float64, numQueries)
	for i := range queries {
		if i%3 == 0 {
			queries[i] = pts[g.IntN(len(pts))]
		} else {
			queries[i] = g.InCube(c.d)
		}
	}
	// Per-query traversal shape, measured once outside the timed loops.
	var nodes, scans int64
	var buf []int
	for _, q := range queries {
		var nv, ls int
		buf, nv, ls = frozen.Covering(q, buf[:0])
		nodes += int64(nv)
		scans += int64(ls)
	}
	nodesPerQ := float64(nodes) / float64(numQueries)
	leafPerQ := float64(scans) / float64(numQueries)

	base := QueryResult{
		N: len(pts), D: c.d, K: c.k,
		NumQueries: numQueries, Iterations: iters,
		NodesPerQuery: nodesPerQ, LeafPerQuery: leafPerQ,
	}
	// All modes are timed as iters independently-timed passes taken
	// round-robin (pointer, frozen, batch…, pointer, frozen, …), and each
	// mode reports its fastest pass. Interleaving means every mode samples
	// the same wall-clock windows, so multi-second host noise (CPU steal,
	// thermal throttling on shared machines) cannot skew one mode's entire
	// measurement; the minimum is the standard noise-robust estimator, and
	// every pass does identical work — including any per-query allocation
	// and the GC it triggers — so the comparison stays fair.
	sink := 0
	type modeRun struct {
		name   string
		procs  int // reported parallelism (batch strands)
		maxp   int // GOMAXPROCS to pin while this mode's pass runs
		pass   func()
		best   time.Duration
		allocs uint64
	}
	ambient := runtime.GOMAXPROCS(0)
	modes := []*modeRun{
		{name: "pointer", procs: 1, maxp: ambient, pass: func() {
			for _, q := range queries {
				balls, _ := tree.Query(vec.Vec(q))
				sink += len(balls)
			}
		}},
		{name: "frozen", procs: 1, maxp: ambient, pass: func() {
			for _, q := range queries {
				buf, _, _ = frozen.Covering(q, buf[:0])
				sink += len(buf)
			}
		}},
	}
	for _, p := range procs {
		b := septree.NewBatch(frozen, p)
		modes = append(modes, &modeRun{
			name: "batch", procs: p, maxp: p,
			pass: func() { b.Run(queries) },
		})
	}
	for _, m := range modes {
		m.best = time.Duration(1<<63 - 1)
		runtime.GOMAXPROCS(m.maxp)
		m.pass() // warm up arenas and the allocator off the clock
	}
	runtime.GC()
	var before, after runtime.MemStats
	for i := 0; i < iters; i++ {
		for _, m := range modes {
			runtime.GOMAXPROCS(m.maxp)
			runtime.ReadMemStats(&before)
			start := time.Now()
			m.pass()
			el := time.Since(start)
			runtime.ReadMemStats(&after)
			if el < m.best {
				m.best = el
			}
			m.allocs += after.Mallocs - before.Mallocs
		}
	}
	runtime.GOMAXPROCS(ambient)
	if sink < 0 {
		return nil, fmt.Errorf("impossible")
	}
	var out []QueryResult
	for _, m := range modes {
		r := base
		r.Mode = m.name
		r.Procs = m.procs
		r.NsPerQuery = m.best.Nanoseconds() / int64(numQueries)
		r.QPS = float64(numQueries) / m.best.Seconds()
		r.AllocsPerOp = int64(m.allocs) / int64(iters)
		out = append(out, r)
	}
	return out, nil
}

func runQueryBench(numQueries, iters int, procs []int) ([]QueryResult, error) {
	var all []QueryResult
	for _, c := range queryGrid {
		rs, err := measureQueries(c, numQueries, iters, procs)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			fmt.Fprintf(os.Stderr, "query %-8s procs=%-2d n=%-6d d=%d k=%d  %8d ns/query  %10.0f qps  %7d allocs/pass\n",
				r.Mode, r.Procs, r.N, r.D, r.K, r.NsPerQuery, r.QPS, r.AllocsPerOp)
		}
		all = append(all, rs...)
	}
	return all, nil
}
