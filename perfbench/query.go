package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"sepdc"
	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/pts"
	"sepdc/internal/septree"
	"sepdc/internal/xrand"
)

// Query workload parameters: two structures, driven alternately.
const (
	queryK     = 4
	queryBatch = 4096 // open covering-ball queries per Batcher.Run
	queryPool  = 32   // distinct pre-generated batches per structure, cycled
	queryCheck = 8    // sampled answers per batch checked against CoveringBalls
)

// queryShape is one of the two structures the query workload alternates.
type queryShape struct {
	label string // "d2" or "d3"
	n, d  int

	points  [][]float64
	qs      *sepdc.QueryStructure
	bt      *sepdc.Batcher
	batches [][][]float64
	times   samples // per-batch Run wall time, seconds
}

var queryShapes = []struct {
	label string
	n, d  int
}{
	{"d2", 100_000, 2},
	{"d3", 20_000, 3},
}

// setUp builds the structure from the points and answers one query: the
// points → frozen → first-answer path the workload's setup_s times.
func (s *queryShape) setUp(seed uint64, workers int) error {
	qs, err := sepdc.NewQueryStructure(s.points, queryK, seed)
	if err != nil {
		return err
	}
	bt := qs.NewBatcher(workers)
	if err := bt.Run(s.batches[0][:1]); err != nil {
		return err
	}
	s.qs, s.bt = qs, bt
	return nil
}

// runQuery drives a Batcher per structure over a seeded stream of
// uniform 4096-query batches, alternating d=2 and d=3, and checks a
// seeded sample of every batch's answers against sequential
// CoveringBalls.
func runQuery(cfg *config) (*outcome, error) {
	out := newOutcome()
	out.params["k"] = queryK
	out.params["dist"] = string(pointgen.UniformCube)
	out.params["batch"] = queryBatch
	out.params["workers"] = cfg.nproc

	g := xrand.New(cfg.seed*7919 + 17)
	var shapes []*queryShape
	for _, sh := range queryShapes {
		s := &queryShape{label: sh.label, n: sh.n, d: sh.d}
		out.params["n_"+s.label] = s.n
		points, err := genPoints(s.n, s.d, cfg.seed+uint64(s.d))
		if err != nil {
			return nil, err
		}
		s.points = points
		s.batches = make([][][]float64, queryPool)
		for b := range s.batches {
			batch := make([][]float64, queryBatch)
			for i := range batch {
				batch[i] = g.InCube(s.d)
			}
			s.batches[b] = batch
		}
		shapes = append(shapes, s)
	}

	// Set-up runs twice; the nearest-rank median of the two totals, the
	// lower one, is reported.
	var setup samples
	for rep := 0; rep < 2; rep++ {
		for _, s := range shapes {
			s.qs, s.bt = nil, nil
		}
		runtime.GC()
		start := time.Now()
		for _, s := range shapes {
			if err := s.setUp(cfg.seed+uint64(rep), cfg.nproc); err != nil {
				return nil, fmt.Errorf("%s structure: %w", s.label, err)
			}
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	out.e2e["setup_s"] = setup.median()

	check := xrand.New(cfg.seed*31 + 5)
	// runBatch answers batch b on shape s, times it, and checks a sample.
	runBatch := func(s *queryShape, b int) time.Duration {
		batch := s.batches[b%queryPool]
		start := time.Now()
		err := s.bt.Run(batch)
		took := time.Since(start)
		out.attempted++
		if err != nil {
			out.failed++
			out.note("%s batch %d: %v", s.label, b, err)
			return took
		}
		s.times = append(s.times, took.Seconds())
		for c := 0; c < queryCheck; c++ {
			i := check.IntN(len(batch))
			want, err := s.qs.CoveringBalls(batch[i])
			if err != nil || !slices.Equal(s.bt.Result(i), want) {
				out.failed++
				out.wrong++
				out.note("%s batch %d query %d: batch answer differs from CoveringBalls", s.label, b, i)
				break
			}
		}
		return took
	}

	// Warm-up: one pass over every batch, unmeasured.
	for b := 0; b < queryPool; b++ {
		for _, s := range shapes {
			runBatch(s, b)
		}
	}
	for _, s := range shapes {
		s.times = s.times[:0]
	}

	if cfg.trace {
		return out, traceQuery(cfg, out, shapes, runBatch)
	}

	var rounds samples // ms
	deadline := time.Now().Add(cfg.window)
	for b := 0; time.Now().Before(deadline); b++ {
		var round time.Duration
		for _, s := range shapes {
			round += runBatch(s, b)
		}
		rounds = append(rounds, ms(round))
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	out.e2e["peak_rss_mb"] = rss
	out.e2e["p50_ms"] = rounds.median()
	for _, s := range shapes {
		out.named["query_"+s.label+"_qps"] = named{queryBatch / s.times.median(), "q/s", len(s.times)}
		out.named["query_"+s.label+"_batch_ms_p50"] = named{s.times.median() * 1e3, "ms", len(s.times)}
		out.named["query_"+s.label+"_batch_ms_p99"] = named{s.times.quantile(0.99) * 1e3, "ms", len(s.times)}
	}
	out.e2e["answers_per_s"] = float64(len(shapes)*queryBatch) / (rounds.median() / 1e3)
	out.addTail("round_ms", rounds, "ms")
	return out, nil
}

// traceQuery alternates plain rounds with traced ones — the round's
// batches first answered sequentially through Frozen.DescendPath and
// Frozen.ScanLeaf, timed per half — and reads the Batcher and structure
// counters. The Frozen is rebuilt outside the Batcher through the same
// pipeline NewQueryStructure runs, with each stage timed.
func traceQuery(cfg *config, out *outcome, shapes []*queryShape,
	runBatch func(*queryShape, int) time.Duration) error {

	L := out.layer
	frozen := make([]*septree.Frozen, len(shapes))
	var trials, internal float64
	for i, s := range shapes {
		ps, err := pts.FromSlices(s.points)
		if err != nil {
			return err
		}
		start := time.Now()
		sys := nbrsys.KNeighborhood(ps.Vecs(), queryK)
		L["nbrsys.kneighborhood_s."+s.label] = time.Since(start).Seconds()
		start = time.Now()
		tree, err := septree.Build(sys, xrand.New(cfg.seed), nil)
		if err != nil {
			return err
		}
		L["septree.build_s."+s.label] = time.Since(start).Seconds()
		start = time.Now()
		if frozen[i], err = septree.Freeze(tree); err != nil {
			return err
		}
		L["septree.freeze_s."+s.label] = time.Since(start).Seconds()

		st := s.qs.Stats()
		L["septree.stored_balls_per_point."+s.label] = float64(st.StoredBalls) / float64(len(s.points))
		trials += float64(st.BuildTrials)
		internal += float64(st.Leaves - 1)
		runtime.GC()
	}
	L["separator.trials"] = trials
	L["separator.useful_ratio"] = internal / trials

	before := make([]sepdc.BatchQueryStats, len(shapes))
	for i, s := range shapes {
		before[i] = s.bt.Stats()
	}
	descend := make([]samples, len(shapes))
	scan := make([]samples, len(shapes))
	var plain, traced samples
	var path []int32
	var res []int
	leaves := make([]int32, queryBatch)
	deadline := time.Now().Add(cfg.window)
	for b := 0; time.Now().Before(deadline) || len(traced) < 2; b++ {
		isTraced := b%2 == 1
		if isTraced {
			for i, s := range shapes {
				batch := s.batches[b%queryPool]
				f := frozen[i]
				start := time.Now()
				for j, q := range batch {
					leaves[j], path = f.DescendPath(q, path[:0])
				}
				descend[i] = append(descend[i], float64(time.Since(start).Nanoseconds())/queryBatch)
				start = time.Now()
				for j, q := range batch {
					res, _ = f.ScanLeaf(leaves[j], q, false, res[:0])
				}
				scan[i] = append(scan[i], float64(time.Since(start).Nanoseconds())/queryBatch)
			}
		}
		var round time.Duration
		for _, s := range shapes {
			round += runBatch(s, b)
		}
		if isTraced {
			traced = append(traced, round.Seconds())
		} else {
			plain = append(plain, round.Seconds())
		}
	}
	for i, s := range shapes {
		st := s.bt.Stats()
		q := float64(st.Queries - before[i].Queries)
		scanned := float64(st.LeafScanned-before[i].LeafScanned) / q
		L["septree.descend_ns_per_query."+s.label] = descend[i].median()
		L["septree.scan_ns_per_query."+s.label] = scan[i].median()
		L["septree.nodes_per_query."+s.label] = float64(st.NodesVisited-before[i].NodesVisited) / q
		L["septree.leaf_scanned_per_query."+s.label] = scanned
		// Each scanned leaf candidate is one distance evaluation over a
		// packed (center, r²) record of d+1 float64s.
		L["vec.dist_evals_per_query."+s.label] = scanned
		L["vec.bytes_per_query."+s.label] = scanned * float64((s.d+1)*8)
	}
	L["trace.overhead_pct"] = (traced.median()/plain.median() - 1) * 100
	return nil
}
