package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sepdc/internal/nbrsys"
	"sepdc/internal/obs"
	"sepdc/internal/pointgen"
	"sepdc/internal/septree"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

// KernelResult is one dimension's distance-kernel micro-measurement:
// the generic fallback (Dist2Flat through an indirect call — the path
// every d >= 4 call site ran before the dispatch table was widened),
// the unrolled single-pair kernel, the unrolled four-point kernel, and
// (on CPUs with the assembly tier) the AVX2 eight-lane forms, all on
// the same operand stream. Batch columns are normalized per distance
// (one call produces four or eight).
type KernelResult struct {
	D               int     `json:"d"`
	GenericNs       float64 `json:"generic_ns_per_dist"`
	UnrolledNs      float64 `json:"unrolled_ns_per_dist"`
	Batch4Ns        float64 `json:"batch4_ns_per_dist"`
	UnrolledSpeedup float64 `json:"unrolled_speedup"`
	Batch4Speedup   float64 `json:"batch4_speedup"`
	// The assembly tier's two batch forms (d = 2..8, AVX2 hosts only):
	// the eight-lane pointer-vector form the query-blocked scan feeds,
	// and the eight-record strided form the sequential leaf scan feeds.
	// AsmNs is the better of the two; AsmSpeedup compares it against
	// Batch4Ns — the unrolled four-point kernel, which also serves the
	// asm tier's four-lane calls.
	AsmBatch8Ns   float64 `json:"asm_batch8_ns_per_dist,omitempty"`
	AsmStrided8Ns float64 `json:"asm_strided8_ns_per_dist,omitempty"`
	AsmNs         float64 `json:"asm_ns_per_dist,omitempty"`
	AsmSpeedup    float64 `json:"asm_speedup,omitempty"`
}

// LayoutResult is one dimension's whole-path serving comparison over
// one built structure in its pair-blocked node layout (the only one):
// ref = the generic kernel tier, which has no wide kernels, so every
// query scans its leaf alone even where the engine groups it, against
// opt = the dispatched kernels (unrolled, four-point and, on AVX2 hosts,
// assembly forms), whose grouped leaf scans share each candidate load
// across the group. Both run through the batch engine on one strand, so
// the numbers isolate the kernels and query blocking rather than
// scheduling. BlockWidth is the engine's own choice for the dimension
// (1 at d<=3, 16 from d=4 on). Descent and
// scan phase means come from one extra non-timed instrumented pass per
// mode (a serving journal timing every query), phase-split exactly like
// the production telemetry.
type LayoutResult struct {
	D             int     `json:"d"`
	N             int     `json:"n"`
	K             int     `json:"k"`
	NumQueries    int     `json:"num_queries"`
	Iterations    int     `json:"iterations"`
	BlockWidth    int     `json:"block_width"`
	RefNsPerQuery int64   `json:"ref_ns_per_query"`
	OptNsPerQuery int64   `json:"opt_ns_per_query"`
	RefQPS        float64 `json:"ref_qps"`
	OptQPS        float64 `json:"opt_qps"`
	Speedup       float64 `json:"speedup"`
	RefDescentNs  float64 `json:"ref_descent_ns_mean"`
	OptDescentNs  float64 `json:"opt_descent_ns_mean"`
	RefScanNs     float64 `json:"ref_scan_ns_mean"`
	OptScanNs     float64 `json:"opt_scan_ns_mean"`
}

// parseDims turns the -dims flag into the dimension sweep, defaulting
// to the full dispatch-table range 2..8.
func parseDims(spec string) ([]int, error) {
	if spec == "" {
		return []int{2, 3, 4, 5, 6, 7, 8}, nil
	}
	if spec == "0" {
		return nil, nil // sections disabled
	}
	var dims []int
	for _, field := range strings.Split(spec, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || d < 1 {
			return nil, fmt.Errorf("bad -dims entry %q", field)
		}
		dims = append(dims, d)
	}
	return dims, nil
}

// kernelPoints builds a deterministic operand table sized to defeat the
// L1 — the kernels are measured with realistic cache pressure, not out
// of registers.
func kernelPoints(d, n int) [][]float64 {
	pts := make([][]float64, n)
	state := uint64(7 + d)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			state = state*6364136223846793005 + 1442695040888963407
			p[j] = float64(state>>11) / float64(1<<53)
		}
		pts[i] = p
	}
	return pts
}

// runKernelBench measures the kernel forms per dimension with the same
// interleaved-minimum protocol as the serving benchmarks: rounds of
// (generic, unrolled, batch4, asm eight-lane forms) passes over one
// operand table, each form keeping its fastest pass. The unrolled and asm
// kernels are captured under explicitly pinned dispatch tiers so the
// columns measure what they claim regardless of KNN_KERNELS or the
// default tier.
func runKernelBench(dims []int) []KernelResult {
	const (
		tablePts  = 512
		passDists = 1 << 20
		rounds    = 7
	)
	var out []KernelResult
	sink := 0.0
	for _, d := range dims {
		pts := kernelPoints(d, tablePts)
		// The strided table mirrors the frozen leaf records: stride d+1
		// (center ‖ r²), one record per table point.
		stride := d + 1
		recs := make([]float64, tablePts*stride)
		for i, p := range pts {
			copy(recs[i*stride:], p)
			recs[i*stride+d] = 1.0
		}
		generic := vec.Dist2Func(vec.Dist2Flat)
		prev := vec.SetActiveTier(vec.TierUnrolled)
		unrolled := vec.Dist2Kernel(d)
		batch4 := vec.Dist2Batch4Kernel(d)
		var asmB8 vec.Dist2Batch8Func
		var asmS8 vec.Dist2Strided8Func
		if vec.SetActiveTier(vec.TierAsm); vec.ActiveTier() == vec.TierAsm {
			// asm covers d = 2..8; outside, both forms are nil.
			asmB8 = vec.Dist2Batch8Kernel(d)
			asmS8 = vec.Dist2Strided8Kernel(d)
		}
		vec.SetActiveTier(prev)
		pass1 := func(kern vec.Dist2Func) time.Duration {
			start := time.Now()
			for i := 0; i < passDists; i++ {
				sink += kern(pts[i&(tablePts-1)], pts[(i+1)&(tablePts-1)])
			}
			return time.Since(start)
		}
		pass4 := func() time.Duration {
			start := time.Now()
			for i := 0; i < passDists/4; i++ {
				da, db, dc, dd := batch4(pts[i&(tablePts-1)], pts[(i+1)&(tablePts-1)],
					pts[(i+2)&(tablePts-1)], pts[(i+3)&(tablePts-1)], pts[(i+4)&(tablePts-1)])
				sink += da + db + dc + dd
			}
			return time.Since(start)
		}
		pass8 := func() time.Duration {
			start := time.Now()
			for i := 0; i < passDists/8; i++ {
				r := i & (tablePts - 9)
				d0, d1, d2, d3, d4, d5, d6, d7 := asmB8(pts[r], pts[r+1:])
				sink += d0 + d1 + d2 + d3 + d4 + d5 + d6 + d7
			}
			return time.Since(start)
		}
		passS8 := func() time.Duration {
			start := time.Now()
			for i := 0; i < passDists/8; i++ {
				r := i & (tablePts - 9)
				d0, d1, d2, d3, d4, d5, d6, d7 := asmS8(pts[r], recs[r*stride:], stride)
				sink += d0 + d1 + d2 + d3 + d4 + d5 + d6 + d7
			}
			return time.Since(start)
		}
		// One named pass per form; absent asm forms simply don't run.
		type form struct {
			run  func() time.Duration
			best time.Duration
		}
		forms := []*form{
			{run: func() time.Duration { return pass1(generic) }},
			{run: func() time.Duration { return pass1(unrolled) }},
			{run: pass4},
		}
		const iGeneric, iUnrolled, iBatch4 = 0, 1, 2
		iAsmB8, iAsmS8 := -1, -1
		if asmB8 != nil {
			iAsmB8 = len(forms)
			forms = append(forms, &form{run: pass8})
			iAsmS8 = len(forms)
			forms = append(forms, &form{run: passS8})
		}
		// One warm round off the clock, then interleave.
		for _, f := range forms {
			f.best = 1<<63 - 1
			f.run()
		}
		for r := 0; r < rounds; r++ {
			for _, f := range forms {
				if el := f.run(); el < f.best {
					f.best = el
				}
			}
		}
		perDist := func(el time.Duration) float64 {
			return float64(el.Nanoseconds()) / float64(passDists)
		}
		r := KernelResult{
			D:          d,
			GenericNs:  perDist(forms[iGeneric].best),
			UnrolledNs: perDist(forms[iUnrolled].best),
			Batch4Ns:   perDist(forms[iBatch4].best),
		}
		if r.UnrolledNs > 0 {
			r.UnrolledSpeedup = r.GenericNs / r.UnrolledNs
		}
		if r.Batch4Ns > 0 {
			r.Batch4Speedup = r.GenericNs / r.Batch4Ns
		}
		if iAsmB8 >= 0 {
			r.AsmBatch8Ns = perDist(forms[iAsmB8].best)
			r.AsmStrided8Ns = perDist(forms[iAsmS8].best)
			r.AsmNs = r.AsmBatch8Ns
			if r.AsmStrided8Ns < r.AsmNs {
				r.AsmNs = r.AsmStrided8Ns
			}
			if r.AsmNs > 0 {
				r.AsmSpeedup = r.Batch4Ns / r.AsmNs
			}
		}
		fmt.Fprintf(os.Stderr, "kernel d=%d  generic %.2f ns  unrolled %.2f ns (%.2fx)  batch4 %.2f ns/dist (%.2fx)",
			d, r.GenericNs, r.UnrolledNs, r.UnrolledSpeedup, r.Batch4Ns, r.Batch4Speedup)
		if iAsmB8 >= 0 {
			fmt.Fprintf(os.Stderr, "  asm b8/s8 %.2f/%.2f ns/dist (%.2fx)",
				r.AsmBatch8Ns, r.AsmStrided8Ns, r.AsmSpeedup)
		}
		fmt.Fprintln(os.Stderr)
		out = append(out, r)
	}
	if sink == 0 {
		fmt.Fprintln(os.Stderr, "kernel bench sink unexpectedly zero")
	}
	return out
}

// phaseMeans runs instrumented passes (journal timing every query) and
// returns the best mean descent and scan nanoseconds per query — the
// minimum over five passes, the same noise-robust estimator as the
// timed loops (five rather than three because the phase means feed the
// d=2/3 no-regression acceptance check, where the real effect is near
// zero and single-core scheduling noise would otherwise dominate).
func phaseMeans(b *septree.Batch, queries [][]float64) (descent, scan float64) {
	descent, scan = -1, -1
	for pass := 0; pass < 5; pass++ {
		j := obs.NewJournal(obs.JournalConfig{SampleEvery: 1}, b.Workers())
		b.Observe(j)
		b.Run(queries)
		b.Observe(nil)
		snap := j.ServeSnapshot()
		if snap.Descent.Count > 0 {
			if m := float64(snap.Descent.Sum) / float64(snap.Descent.Count); descent < 0 || m < descent {
				descent = m
			}
		}
		if snap.Scan.Count > 0 {
			if m := float64(snap.Scan.Sum) / float64(snap.Scan.Count); scan < 0 || m < scan {
				scan = m
			}
		}
	}
	if descent < 0 {
		descent = 0
	}
	if scan < 0 {
		scan = 0
	}
	return descent, scan
}

// layoutQueries builds the layout cells' query stream: runs of eight
// spatially-adjacent queries (a stored center as the run anchor, plus
// small jitters around it). Correlated runs around stored points are
// the serving shape the engine actually sees from the library itself:
// the correction's closed covering queries probe all points of one
// separator side — stored points, neighbors by construction — and
// external serving traffic batches are routinely spatially clustered
// too. Runs
// land whole inside one strand chunk (8 divides batchChunk), so the
// blocked engine can discover the same-leaf groups; the reference
// serves the identical stream.
func layoutQueries(pts [][]float64, d, numQueries int, g *xrand.RNG) [][]float64 {
	const run = 8
	queries := make([][]float64, numQueries)
	for i := 0; i < numQueries; {
		anchor := pts[g.IntN(len(pts))]
		for r := 0; r < run && i < numQueries; r++ {
			q := make([]float64, d)
			for j := range q {
				q[j] = anchor[j] + (g.Float64()-0.5)*0.02
			}
			queries[i] = q
			i++
		}
	}
	return queries
}

// layoutN returns the point count for one dimension's layout cell.
// Crossing-ball duplication grows steeply with d on uniform points
// (at d=6, n=5000 the tree stores ~10⁸ ball copies — tens of GB of
// inlined leaf records), so the workload shrinks as d grows to keep
// the structure buildable (the table below stays under ~1 GB of leaf
// records per frozen copy) while the per-leaf candidate counts — what
// the kernels and blocked scans actually chew through — stay at the
// dimension's realistic scale (leaf size doubles per dimension above 3).
func layoutN(d int) int {
	switch {
	case d <= 4:
		return 10000
	case d == 5:
		return 4000
	case d == 6:
		return 2000
	default:
		return 1200
	}
}

// runLayoutBench measures ref vs opt serving per dimension over the
// clustered query stream of layoutQueries — correlated runs being both
// the library's own correction traffic and the case query blocking is
// built for; the ref mode serves the identical stream.
func runLayoutBench(dims []int, numQueries, iters int) ([]LayoutResult, error) {
	const k = 4
	var out []LayoutResult
	for _, d := range dims {
		n := layoutN(d)
		g := xrand.New(uint64(n*31 + d))
		pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, n, d, g.Split()))
		sys := nbrsys.KNeighborhood(pts, k)
		opt, err := septree.Build(sys, xrand.New(42), nil)
		if err != nil {
			return nil, err
		}
		// The reference re-freezes the same structure under the generic
		// tier, which captures the flat kernels, no batch kernels and no
		// inline descents.
		prev := vec.SetActiveTier(vec.TierGeneric)
		ref, err := septree.Freeze(opt)
		vec.SetActiveTier(prev)
		if err != nil {
			return nil, err
		}
		pf := make([][]float64, len(pts))
		for i, p := range pts {
			pf[i] = p
		}
		queries := layoutQueries(pf, d, numQueries, g)
		refB := septree.NewBatch(ref, 1)
		optB := septree.NewBatch(opt, 1)
		refB.Run(queries)
		optB.Run(queries)
		for i := range queries {
			a, b := refB.Result(i), optB.Result(i)
			if len(a) != len(b) {
				return nil, fmt.Errorf("layout d=%d: ref and opt disagree on query %d", d, i)
			}
			for j := range a {
				if a[j] != b[j] {
					return nil, fmt.Errorf("layout d=%d: ref and opt disagree on query %d", d, i)
				}
			}
		}
		refBest, optBest := time.Duration(1<<63-1), time.Duration(1<<63-1)
		for it := 0; it < iters; it++ {
			start := time.Now()
			refB.Run(queries)
			if el := time.Since(start); el < refBest {
				refBest = el
			}
			start = time.Now()
			optB.Run(queries)
			if el := time.Since(start); el < optBest {
				optBest = el
			}
		}
		r := LayoutResult{
			D: d, N: len(pts), K: k,
			NumQueries: numQueries, Iterations: iters, BlockWidth: optB.BlockWidth(),
			RefNsPerQuery: refBest.Nanoseconds() / int64(numQueries),
			OptNsPerQuery: optBest.Nanoseconds() / int64(numQueries),
			RefQPS:        float64(numQueries) / refBest.Seconds(),
			OptQPS:        float64(numQueries) / optBest.Seconds(),
		}
		if optBest > 0 {
			r.Speedup = float64(refBest) / float64(optBest)
		}
		// Phase means from non-timed instrumented passes, after the timed
		// loop so the recorder cannot color the ns/query numbers.
		r.RefDescentNs, r.RefScanNs = phaseMeans(refB, queries)
		r.OptDescentNs, r.OptScanNs = phaseMeans(optB, queries)
		fmt.Fprintf(os.Stderr,
			"layout d=%d  ref %6d ns/q  opt %6d ns/q  %.2fx  descent %5.0f->%5.0f ns  scan %5.0f->%5.0f ns\n",
			d, r.RefNsPerQuery, r.OptNsPerQuery, r.Speedup,
			r.RefDescentNs, r.OptDescentNs, r.RefScanNs, r.OptScanNs)
		out = append(out, r)
	}
	return out, nil
}
