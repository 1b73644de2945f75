package core

import (
	"math"

	"sepdc/internal/geom"
	"sepdc/internal/march"
	"sepdc/internal/nbrsys"
	"sepdc/internal/obs"
	"sepdc/internal/pts"
	"sepdc/internal/septree"
	"sepdc/internal/topk"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// crossing collects the members of side whose current k-neighborhood ball
// crosses sep. A point whose list is not yet full (fewer than k neighbors
// exist on its side) has a conceptually unbounded ball and is always
// included. By Lemma 6.1 these are exactly the balls that can gain a
// neighbor from the other side.
func crossing(ps *pts.PointSet, lists []*topk.List, side []int, sep geom.Separator, ctx *vm.Ctx) []int {
	var out []int
	for _, i := range side {
		r2, full := lists[i].Radius2()
		if !full {
			out = append(out, i)
			continue
		}
		// Inflate the radius a hair: sqrt rounding must never demote a
		// crossing ball to interior/exterior (missing a tie candidate).
		// The Nextafter bump handles squared-distance underflow — r2 == 0
		// still admits ties out to sqrt(minSubnormal) ≈ 1.5e-162.
		r := math.Sqrt(math.Nextafter(r2, math.Inf(1))) * (1 + 1e-12)
		if sep.ClassifyBall(ps.At(i), r) == geom.Crossing {
			out = append(out, i)
		}
	}
	ctx.Prim(len(side)) // classify all balls: one vector primitive
	return out
}

// ballsOf converts the crossing indices into marching balls. Not-yet-full
// lists produce balls with an effectively infinite radius, which the march
// classifies as crossing everywhere and whose leaf test accepts every
// point — precisely the needed semantics.
func ballsOf(ps *pts.PointSet, lists []*topk.List, idx []int) []march.Ball {
	balls := make([]march.Ball, len(idx))
	for j, i := range idx {
		r2, full := lists[i].Radius2()
		if !full {
			balls[j] = march.Ball{ID: i, Center: ps.At(i), Radius: math.Inf(1), Radius2: math.Inf(1)}
			continue
		}
		balls[j] = march.NewBall(i, ps.At(i), r2)
	}
	return balls
}

// fastCorrect runs the paper's Fast Correction in one direction: march the
// crossing balls of one side down the partition tree of the other side and
// offer every discovered (ball, point) pair to the ball's k-NN list.
// Returns false when the march aborted on the active-ball limit, in which
// case no list was modified and the caller must punt.
func fastCorrect(ps *pts.PointSet, lists []*topk.List, cross []int, otherTree *march.PNode,
	activeLimit int, opts *Options, ctx *vm.Ctx, tl *tally, sh *obs.Shard) bool {

	if len(cross) == 0 || otherTree == nil {
		return true
	}
	sp := sh.Begin()
	balls := ballsOf(ps, lists, cross)
	hits, st := march.DownFlatChaos(otherTree, ps, balls, activeLimit, ctx, opts.chaos())
	tl.add(func(s *Stats) {
		s.Duplications += st.Duplications
		if st.MaxActive > s.MaxMarchActive {
			s.MaxMarchActive = st.MaxActive
		}
		if opts != nil && opts.CollectProfiles {
			s.Profiles = append(s.Profiles, st.ActivePerLvl)
		}
	})
	sh.Observe(obs.HMarchLevels, int64(st.Levels))
	sh.Observe(obs.HMarchMaxActive, int64(st.MaxActive))
	sh.Observe(obs.HMarchVisited, int64(st.TotalVisited))
	sh.Count(obs.CDuplications, int64(st.Duplications))
	sh.EndTrace(sp, obs.SpanMarch, int64(len(cross)))
	if st.Aborted {
		return false
	}
	// Candidate insertion is a pure distance loop; resolve the d-specialized
	// kernel once (bit-identical to ps.Dist2).
	dist2 := vec.Dist2Kernel(ps.Dim)
	for _, h := range hits {
		lists[h.BallID].Insert(h.Point, dist2(ps.At(h.BallID), ps.At(h.Point)))
	}
	// k-selection of the discovered candidates: one primitive over the hits
	// (the paper's SCAN-based closest-point selection; O(log log k) steps
	// for k > 1, absorbed into the constant here and noted in DESIGN.md).
	ctx.PrimK(2, len(hits))
	tl.add(func(s *Stats) {
		s.CandidatePairs += len(hits)
		s.FastCorrections++
	})
	sh.Count(obs.CFastCorrections, 1)
	sh.Count(obs.CCandidatePairs, int64(len(hits)))
	return true
}

// queryCorrect is the punt path (and the Section-5 baseline's only path):
// build the Section-3 search structure over the crossing balls of one side
// and query every point of the other side against it, offering each
// covering (ball, point) pair to the ball's list.
//
// Points whose lists are not full have unbounded balls that the search
// structure cannot hold; they are corrected by direct scan over the other
// side (there are at most k of them per side in practice, and the scan's
// cost is charged faithfully).
func queryCorrect(ps *pts.PointSet, lists []*topk.List, cross []int, otherPts []int,
	g *xrand.RNG, opts *Options, ctx *vm.Ctx, tl *tally, sh *obs.Shard, cc canceller) {

	if len(cross) == 0 || len(otherPts) == 0 || cc.cancelled() {
		return
	}
	sp := sh.Begin()
	defer func() { sh.EndTrace(sp, obs.SpanQueryCorrect, int64(len(cross))) }()
	var finite []int
	var unbounded []int
	for _, i := range cross {
		if _, full := lists[i].Radius2(); full {
			finite = append(finite, i)
		} else {
			unbounded = append(unbounded, i)
		}
	}
	// Unbounded balls: direct scan. Each such point needs every other-side
	// point as a candidate. All of queryCorrect's candidate loops share the
	// d-specialized kernels (bit-identical to ps.Dist2); the direct scans
	// run four candidates per four-point kernel call.
	dist2 := vec.Dist2Kernel(ps.Dim)
	batch4 := vec.Dist2Batch4Kernel(ps.Dim)
	directScan := func(i int) {
		pi := ps.At(i)
		l := lists[i]
		k := 0
		for ; k+4 <= len(otherPts); k += 4 {
			j0, j1, j2, j3 := otherPts[k], otherPts[k+1], otherPts[k+2], otherPts[k+3]
			da, db, dc, dd := batch4(pi, ps.At(j0), ps.At(j1), ps.At(j2), ps.At(j3))
			l.Insert(j0, da)
			l.Insert(j1, db)
			l.Insert(j2, dc)
			l.Insert(j3, dd)
		}
		for ; k < len(otherPts); k++ {
			l.Insert(otherPts[k], dist2(pi, ps.At(otherPts[k])))
		}
	}
	for _, i := range unbounded {
		directScan(i)
	}
	if len(unbounded) > 0 {
		ctx.PrimK(len(unbounded), len(otherPts))
		tl.add(func(s *Stats) { s.CandidatePairs += len(unbounded) * len(otherPts) })
		sh.Count(obs.CCandidatePairs, int64(len(unbounded)*len(otherPts)))
	}
	if len(finite) == 0 {
		tl.add(func(s *Stats) { s.QueryCorrections++ })
		sh.Count(obs.CQueryCorrections, 1)
		return
	}

	// Build the query structure over the finite crossing balls.
	centers := make([]vec.Vec, len(finite))
	radii := make([]float64, len(finite))
	for j, i := range finite {
		r2, _ := lists[i].Radius2()
		centers[j] = ps.At(i)
		// Inflate, and bump past squared-distance underflow: never lose a tie.
		radii[j] = math.Sqrt(math.Nextafter(r2, math.Inf(1))) * (1 + 1e-12)
	}
	sys := &nbrsys.System{Centers: centers, Radii: radii}
	frozen, err := septree.Build(sys, g.Split(), &septree.Options{Sep: opts.sep(), Done: cc.done})
	if err != nil {
		if cc.cancelled() {
			// The structure build was cut short by cancellation; the punt
			// correction is moot because the lists are being discarded.
			return
		}
		// Degenerate system (e.g. all centers identical): fall back to the
		// direct scan, still exact.
		for _, i := range finite {
			directScan(i)
		}
		ctx.PrimK(len(finite), len(otherPts))
		tl.add(func(s *Stats) {
			s.CandidatePairs += len(finite) * len(otherPts)
			s.QueryCorrections++
		})
		sh.Count(obs.CCandidatePairs, int64(len(finite)*len(otherPts)))
		sh.Count(obs.CQueryCorrections, 1)
		return
	}
	ctx.Charge(frozen.Stats.Cost)
	tl.add(func(s *Stats) { s.SeparatorTrials += frozen.Stats.SeparatorTrials })
	sh.Count(obs.CSeparatorTrials, int64(frozen.Stats.SeparatorTrials))
	sh.Count(obs.CSeptreeBuilds, 1)
	sh.Count(obs.CSeptreeStored, int64(frozen.Stats.TotalStored))

	// Query every other-side point with closed balls, so candidates at
	// exactly the current k-th distance are not lost. The queries are
	// conceptually all in parallel: steps = deepest query path plus two
	// (distribute the queries, pack the results), work = Σ (nodes
	// visited + balls reported) — Theorem 3.1's query-phase accounting.
	// Hits arrive per query in ascending ball order.
	var covering []int
	hits, deepest, work := 0, 0, 0
	for _, j := range otherPts {
		pj := ps.At(j)
		var visited int
		covering, visited, _ = frozen.CoveringClosed(pj, covering[:0])
		deepest = max(deepest, visited)
		work += visited + len(covering)
		for _, b := range covering {
			i := finite[b]
			lists[i].Insert(j, dist2(ps.At(i), pj))
		}
		hits += len(covering)
	}
	ctx.Charge(vm.Cost{Steps: int64(deepest) + 2, Work: int64(work)})
	tl.add(func(s *Stats) {
		s.CandidatePairs += hits
		s.QueryCorrections++
	})
	sh.Count(obs.CCandidatePairs, int64(hits))
	sh.Count(obs.CQueryCorrections, 1)
}
