package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"sepdc/internal/nbrsys"
	"sepdc/internal/obs"
	"sepdc/internal/pointgen"
	"sepdc/internal/septree"
	"sepdc/internal/xrand"
)

// ObsOverhead is one serving-telemetry overhead measurement: the same
// batch engine over the same frozen structure and query stream, once
// with no observer attached, once observed — a serving journal at the
// production defaults (1 in 16 queries fully timed, 4096-event rings)
// publishing one wide event per query and folding the timed ones into
// its histograms — and once fully traced on top of that: every query
// carrying a request trace context through RunTraced, with every 16th
// request sampled (the knnload -trace-every default). Client-sampled
// queries take the timed phase-split route but are marked Forced and
// feed only the exemplars, so the traced mode's aggregates match the
// observed mode's; traced_vs_obs_pct is the cost of the tracing layer
// itself. traced_overhead_pct is the whole serving telemetry stack over
// nil, with zero allocations per pass.
type ObsOverhead struct {
	N                int     `json:"n"`
	D                int     `json:"d"`
	K                int     `json:"k"`
	Procs            int     `json:"procs"`
	NumQueries       int     `json:"num_queries"`
	Iterations       int     `json:"iterations"`
	SampleEvery      int     `json:"sample_every"`
	NilNsPerQuery    int64   `json:"nil_ns_per_query"`
	ObsNsPerQuery    int64   `json:"obs_ns_per_query"`    // observer attached
	TracedNsPerQuery int64   `json:"traced_ns_per_query"` // observer + per-query trace contexts
	NilQPS           float64 `json:"nil_qps"`
	ObsQPS           float64 `json:"obs_qps"`
	TracedQPS        float64 `json:"traced_qps"`
	OverheadPct      float64 `json:"overhead_pct"`        // observer, vs nil
	TracedOverhead   float64 `json:"traced_overhead_pct"` // observer + traces, vs nil: the whole stack
	TracedVsObs      float64 `json:"traced_vs_obs_pct"`   // tracing alone, over the observed path
	NilAllocs        int64   `json:"nil_allocs_per_pass"`
	ObsAllocs        int64   `json:"obs_allocs_per_pass"`
	TracedAllocs     int64   `json:"traced_allocs_per_pass"`
	SampledTotal     int64   `json:"sampled_total"` // tick-sampled queries the observed mode absorbed
}

// measureObsOverhead times nil-observer vs instrumented serving with the
// same interleaved-minimum protocol as the query section: passes
// alternate nil, observed, traced, nil, … so every mode samples the same
// wall-clock windows and the minimum discards host noise.
func measureObsOverhead(c queryCfg, numQueries, iters int) (ObsOverhead, error) {
	g := xrand.New(uint64(c.n*31 + c.d))
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, c.n, c.d, g.Split()))
	sys := nbrsys.KNeighborhood(pts, c.k)
	frozen, err := septree.Build(sys, xrand.New(42), nil)
	if err != nil {
		return ObsOverhead{}, err
	}
	queries := make([][]float64, numQueries)
	for i := range queries {
		if i%3 == 0 {
			queries[i] = pts[g.IntN(len(pts))]
		} else {
			queries[i] = g.InCube(c.d)
		}
	}

	plain := septree.NewBatch(frozen, 1)
	jour := obs.NewJournal(obs.JournalConfig{}, 1) // production defaults
	observed := septree.NewBatch(frozen, 1)
	observed.Observe(jour)
	tracedB := septree.NewBatch(frozen, 1)
	tracedB.Observe(obs.NewJournal(obs.JournalConfig{}, 1))
	// Every query carries a trace context, grouped 16 queries to a
	// "request" like a production batch; every 16th request is sampled
	// (the knnload -trace-every default), forcing its queries onto the
	// timed phase-split path.
	traces := make([]obs.TraceContext, numQueries)
	for i := range traces {
		req := uint64(i / 16)
		tc := obs.GenTrace(uint64(c.n*31+c.d), req)
		tc.Sampled = req%16 == 0
		traces[i] = tc
	}

	type modeRun struct {
		b      *septree.Batch
		traces []obs.TraceContext // nil = plain Run
		best   time.Duration
		allocs uint64
	}
	modes := []*modeRun{{b: plain}, {b: observed}, {b: tracedB, traces: traces}}
	for _, m := range modes {
		m.best = time.Duration(1<<63 - 1)
		m.b.RunTraced(queries, m.traces) // warm arenas and rings
	}
	runtime.GC()
	var before, after runtime.MemStats
	for i := 0; i < iters; i++ {
		for _, m := range modes {
			runtime.ReadMemStats(&before)
			start := time.Now()
			m.b.RunTraced(queries, m.traces)
			el := time.Since(start)
			runtime.ReadMemStats(&after)
			if el < m.best {
				m.best = el
			}
			m.allocs += after.Mallocs - before.Mallocs
		}
	}
	perQ := func(m *modeRun) int64 { return m.best.Nanoseconds() / int64(numQueries) }
	qps := func(m *modeRun) float64 { return float64(numQueries) / m.best.Seconds() }
	res := ObsOverhead{
		N: len(pts), D: c.d, K: c.k, Procs: 1,
		NumQueries: numQueries, Iterations: iters,
		SampleEvery:      int(jour.SampleEvery()),
		NilNsPerQuery:    perQ(modes[0]),
		ObsNsPerQuery:    perQ(modes[1]),
		TracedNsPerQuery: perQ(modes[2]),
		NilQPS:           qps(modes[0]),
		ObsQPS:           qps(modes[1]),
		TracedQPS:        qps(modes[2]),
		NilAllocs:        int64(modes[0].allocs) / int64(iters),
		ObsAllocs:        int64(modes[1].allocs) / int64(iters),
		TracedAllocs:     int64(modes[2].allocs) / int64(iters),
		SampledTotal:     jour.ServeSnapshot().Sampled,
	}
	pct := func(x, base int64) float64 { return 100 * (float64(x) - float64(base)) / float64(base) }
	res.OverheadPct = pct(res.ObsNsPerQuery, res.NilNsPerQuery)
	res.TracedOverhead = pct(res.TracedNsPerQuery, res.NilNsPerQuery)
	res.TracedVsObs = pct(res.TracedNsPerQuery, res.ObsNsPerQuery)
	return res, nil
}

// obsGrid is the telemetry-overhead workload: the large query-grid
// cells, where per-query work is smallest relative to the fixed
// sampling cost and the overhead is therefore most visible.
var obsGrid = []queryCfg{{100000, 2, 4}, {100000, 3, 4}}

// runObsBench measures the telemetry overhead on the obsGrid cells.
func runObsBench(numQueries, iters int) ([]ObsOverhead, error) {
	var all []ObsOverhead
	for _, c := range obsGrid {
		r, err := measureObsOverhead(c, numQueries, iters)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "obs   n=%-6d d=%d k=%d  nil %6d ns/q  observed %6d ns/q (%+5.1f%%)  traced %6d ns/q (%+5.1f%% vs nil, %+5.1f%% vs observed)  allocs nil=%d observed=%d traced=%d\n",
			r.N, r.D, r.K, r.NilNsPerQuery, r.ObsNsPerQuery, r.OverheadPct,
			r.TracedNsPerQuery, r.TracedOverhead, r.TracedVsObs,
			r.NilAllocs, r.ObsAllocs, r.TracedAllocs)
		all = append(all, r)
	}
	return all, nil
}

// JournalBench characterizes the wide-event journal itself rather than
// its serving overhead: how fast a concurrent consumer can pull events
// out (the /journal?drain=1 path), and how hard the ring overwrites
// when nobody drains (the flight-recorder-only deployment, where
// Snapshot reads whatever the ring still holds).
type JournalBench struct {
	N          int `json:"n"`
	D          int `json:"d"`
	K          int `json:"k"`
	NumQueries int `json:"num_queries"`
	PerStrand  int `json:"per_strand"` // ring capacity per strand
	Batches    int `json:"batches"`

	// Drained leg: a consumer drains continuously while batches serve.
	DrainedEvents   uint64  `json:"drained_events"`
	DrainedPerSec   float64 `json:"drained_events_per_sec"`
	DrainedDropped  uint64  `json:"drained_dropped"` // overwritten before the drainer got there
	DrainedDropRate float64 `json:"drained_drop_rate"`

	// Saturated leg: nobody drains; the ring overwrites freely and one
	// final drain accounts for everything lost.
	SaturatedPublished uint64  `json:"saturated_published"`
	SaturatedDropped   uint64  `json:"saturated_dropped"`
	OverwriteRate      float64 `json:"overwrite_rate"` // dropped / published
}

// runJournalBench measures journal drain throughput and ring-overwrite
// behavior over a live batch engine on the first (d=2) obsGrid cell.
func runJournalBench(numQueries, batches int) (*JournalBench, error) {
	const perStrand = 1024 // deliberately small: overwrite pressure is the point
	c := obsGrid[0]
	g := xrand.New(uint64(c.n*31 + c.d))
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, c.n, c.d, g.Split()))
	sys := nbrsys.KNeighborhood(pts, c.k)
	frozen, err := septree.Build(sys, xrand.New(42), nil)
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
	res := &JournalBench{
		N: len(pts), D: c.d, K: c.k,
		NumQueries: numQueries, PerStrand: perStrand, Batches: batches,
	}

	// Drained leg: consumer drains as fast as it can while serving runs.
	jour := obs.NewJournal(obs.JournalConfig{PerStrand: perStrand}, 1)
	b := septree.NewBatch(frozen, 1)
	b.Observe(jour)
	b.Run(queries) // warm
	jour.Drain()
	stop := make(chan struct{})
	done := make(chan struct{})
	var drained, dropped uint64 // dropped is cumulative in each Drain; keep the last
	go func() {
		defer close(done)
		for {
			d := jour.Drain()
			drained += uint64(len(d.Events))
			dropped = d.Dropped
			select {
			case <-stop:
				d := jour.Drain()
				drained += uint64(len(d.Events))
				dropped = d.Dropped
				return
			default:
			}
		}
	}()
	start := time.Now()
	for i := 0; i < batches; i++ {
		b.Run(queries)
	}
	el := time.Since(start)
	close(stop)
	<-done
	res.DrainedEvents = drained
	res.DrainedDropped = dropped
	res.DrainedPerSec = float64(drained) / el.Seconds()
	if total := drained + dropped; total > 0 {
		res.DrainedDropRate = float64(dropped) / float64(total)
	}

	// Saturated leg: same engine, nobody drains until the end.
	jour2 := obs.NewJournal(obs.JournalConfig{PerStrand: perStrand}, 1)
	b.Observe(jour2)
	for i := 0; i < batches; i++ {
		b.Run(queries)
	}
	d := jour2.Drain()
	res.SaturatedPublished = d.Published
	res.SaturatedDropped = d.Dropped
	if d.Published > 0 {
		res.OverwriteRate = float64(d.Dropped) / float64(d.Published)
	}
	fmt.Fprintf(os.Stderr, "journal n=%-6d d=%d ring=%d  drained %.0f ev/s (drop rate %.3f)  saturated overwrite rate %.3f (%d/%d)\n",
		res.N, res.D, perStrand, res.DrainedPerSec, res.DrainedDropRate,
		res.OverwriteRate, res.SaturatedDropped, res.SaturatedPublished)
	return res, nil
}
