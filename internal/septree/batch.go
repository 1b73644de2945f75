package septree

import (
	"sync"
	"sync/atomic"
	"time"

	"sepdc/internal/chaos"
	"sepdc/internal/obs"
	"sepdc/internal/pool"
)

// Batch is a reusable batched-query engine over a Frozen tree. One Batch
// owns a fixed set of strands (worker-shard pairs); each Run fans the
// query slice across them through the shared worker pool, with queries
// handed out in chunks off one atomic counter so stragglers self-balance.
//
// Every strand appends result ids into its own arena and records a
// (shard, start, end) span per query, so the steady state — capacities
// warmed up by earlier runs — performs zero heap allocations per Run:
// the task closures are pre-allocated at construction, dispatch is one
// channel send per strand, and result storage is recycled.
//
// A Batch is NOT safe for concurrent use; callers serialize Runs (or use
// one Batch per goroutine over the same Frozen, which is safe — the
// Frozen is immutable).
type Batch struct {
	f      *Frozen
	pool   *pool.Pool
	shards []batchShard
	submit []func() // pre-allocated strand closures (strands 1..W-1)
	wg     sync.WaitGroup

	// Per-run state. queries and traces are only held during Run.
	queries [][]float64
	traces  []obs.TraceContext // per-query trace contexts (nil = untraced run)
	spans   []span
	next    atomic.Int64
	nq      int64
	closed  bool
	blockW  int // leaf-scan query-block width; <= 1 disables blocking

	// inj is the serving-side chaos seam (nil = no injection, one
	// predictable branch per claimed chunk): the stall clause delays a
	// strand before each chunk it processes, modeling a lagging serving
	// worker without changing any answer.
	inj *chaos.Injector

	// curBatch is the 1-based ordinal of the Run in flight, stamped on
	// journal events. Written between runs, read by strands during one.
	curBatch int64

	// Cumulative engine statistics.
	batches int64
	latency obs.LogHist
}

type span struct {
	shard      int32
	start, end int32
}

// batchShard is one strand's result arena and counters. Padded so two
// strands' append cursors never share a cache line.
type batchShard struct {
	ids     []int
	queries int64
	nodes   int64
	scanned int64
	// journal is this strand's slot in the attached serving journal
	// (nil when none is attached — the sample tick then costs one nil
	// check per query and publishing one branch per chunk). jbuf is the
	// chunk's event scratch: filled with plain stores while answering,
	// published to the ring with one lock + one copy per chunk, so
	// journaling every query costs low single-digit nanoseconds
	// amortized and zero allocations. path is the descent-path scratch
	// the timed queries reuse; it never shrinks, so steady state
	// records without allocating.
	journal *obs.JournalStrand
	jbuf    [batchChunk]obs.JournalEvent
	path    []int32
	// Query-blocking scratch (allocated by SetBlockWidth, reused across
	// runs). leaves/qnodes/done hold the current chunk's descent results;
	// qs and outs are the lane views handed to scanLeafBlock — outs lanes
	// grow once and are recycled, keeping the blocked steady state
	// allocation-free.
	leaves [batchChunk]int32
	qnodes [batchChunk]int32
	done   [batchChunk]bool
	qs     [][]float64
	outs   [][]int
	_      [64]byte
}

// batchChunk is how many queries a strand claims per atomic fetch-add:
// large enough that counter contention is negligible, small enough that
// an unlucky strand stuck with deep queries sheds load to the others.
const batchChunk = 16

// maxBlockWidth caps the leaf-scan query-block width. Sixteen query
// lanes are two eight-wide assembly passes (or four four-wide Go
// passes) per candidate — wide enough that a hot leaf's record stream
// is amortized over a full chunk's worth of co-located queries, narrow
// enough that the lane scratch stays resident in L1. Matching
// batchChunk means a chunk whose queries all land on one leaf forms a
// single group.
const maxBlockWidth = 16

// NewBatch returns an engine with the given strand count over f.
// workers <= 0 selects GOMAXPROCS. With one strand the engine runs
// entirely on the caller; otherwise strands beyond the first are offered
// to the shared worker pool and degrade to inline execution when it is
// saturated.
func NewBatch(f *Frozen, workers int) *Batch {
	p := pool.Shared()
	if workers <= 0 {
		workers = p.Size()
	}
	b := &Batch{f: f, shards: make([]batchShard, workers)}
	if workers > 1 {
		b.pool = p
		b.submit = make([]func(), workers-1)
		for t := 1; t < workers; t++ {
			t := t
			b.submit[t-1] = func() {
				b.strand(t)
				b.wg.Done()
			}
		}
	}
	return b
}

// Workers returns the engine's strand count.
func (b *Batch) Workers() int { return len(b.shards) }

// Observe attaches a serving journal: each strand publishes one
// fixed-size structured event per served query (batch/query ids,
// destination leaf where known, descent depth, candidates scanned,
// balls reported, phase-split latency for the timed queries) into its
// own bounded ring, one lock per chunk, and the journal folds the
// tick-sampled events into its counts and histograms. A nil journal
// detaches. Not safe to call concurrently with Run; results of timed
// queries are bit-identical to untimed ones.
func (b *Batch) Observe(j *obs.Journal) {
	j.Ensure(len(b.shards))
	for i := range b.shards {
		b.shards[i].journal = j.Strand(i) // nil journal hands out nil strands
		if b.shards[i].path == nil && j != nil {
			b.shards[i].path = make([]int32, 0, 64)
		}
	}
}

// Chaos attaches a fault injector to the serving engine. Only the stall
// clause applies here: each strand sleeps the configured duration before
// every chunk of queries it claims, the serving analogue of the build
// pool's lagging-worker injection — per-batch latency inflates, answers
// are bit-identical. Nil detaches. Not safe to call concurrently with
// Run.
func (b *Batch) Chaos(inj *chaos.Injector) { b.inj = inj }

// SetBlockWidth sets the engine's leaf-scan query-blocking width,
// clamped to [1, 16]. Widths above 1 enable blocked scans: after a chunk
// of queries descends, queries that landed on the same leaf are grouped
// up to the width and answered by one streaming pass over the leaf's
// candidate records (scanLeafBlock), amortizing the candidate stream —
// the dominant memory traffic at d >= 4 — across the group. Answers are
// bit-identical to the unblocked engine and each query's ids stay in
// ascending order; width 1 restores the sequential per-query path.
// Sampled (timed) queries always take the individual phase-split path so
// telemetry keeps meaning the same thing. Not safe to call concurrently
// with Run.
func (b *Batch) SetBlockWidth(w int) {
	if w < 1 {
		w = 1
	}
	if w > maxBlockWidth {
		w = maxBlockWidth
	}
	b.blockW = w
	if w == 1 {
		return
	}
	for i := range b.shards {
		sh := &b.shards[i]
		if sh.path == nil {
			sh.path = make([]int32, 0, 64)
		}
		if sh.qs == nil {
			sh.qs = make([][]float64, maxBlockWidth)
		}
		if sh.outs == nil {
			sh.outs = make([][]int, maxBlockWidth)
		}
	}
}

// BlockWidth returns the current leaf-scan query-block width.
func (b *Batch) BlockWidth() int {
	if b.blockW < 1 {
		return 1
	}
	return b.blockW
}

// Run answers an open-ball covering query for every element of queries
// (the Frozen.Covering predicate). Results are read back with Result; they
// remain valid until the next Run. Queries must match the tree's
// dimension — the engine does not validate (the public API layer does).
func (b *Batch) Run(queries [][]float64) { b.runTraced(queries, nil, false) }

// RunClosed is Run with closed-ball membership (Frozen.CoveringClosed).
func (b *Batch) RunClosed(queries [][]float64) { b.runTraced(queries, nil, true) }

// RunTraced is Run with per-query trace contexts: traces[i] is query
// i's request context (the zero value marks an untraced query). Traced
// queries stamp their TraceID and a per-query derived SpanID on journal
// events; a trace with the sampled flag forces the timed phase-split
// path (and so an exemplar + absolute-timeline journal event) even when
// the strand's own sample tick does not fire. traces must be nil or
// len(queries) long; the engine holds the slice only for the duration
// of the run. Answers are bit-identical to Run.
func (b *Batch) RunTraced(queries [][]float64, traces []obs.TraceContext) {
	b.runTraced(queries, traces, false)
}

// RunClosedTraced is RunTraced with closed-ball membership.
func (b *Batch) RunClosedTraced(queries [][]float64, traces []obs.TraceContext) {
	b.runTraced(queries, traces, true)
}

func (b *Batch) runTraced(queries [][]float64, traces []obs.TraceContext, closed bool) {
	start := time.Now()
	b.queries, b.traces, b.closed = queries, traces, closed
	b.curBatch = b.batches + 1
	b.nq = int64(len(queries))
	if cap(b.spans) < len(queries) {
		b.spans = make([]span, len(queries))
	} else {
		b.spans = b.spans[:len(queries)]
	}
	var nodes0, scanned0 int64
	for i := range b.shards {
		sh := &b.shards[i]
		sh.ids = sh.ids[:0]
		nodes0 += sh.nodes
		scanned0 += sh.scanned
	}
	b.next.Store(0)

	// Deploy at most one strand per chunk of work; tiny batches stay on
	// the caller. Strand 0 always runs inline on the calling goroutine.
	deploy := len(b.shards)
	if need := int((b.nq + batchChunk - 1) / batchChunk); deploy > need {
		deploy = need
	}
	if deploy > 1 {
		b.wg.Add(deploy - 1)
		for t := 1; t < deploy; t++ {
			if !b.pool.TrySubmit(b.submit[t-1]) {
				b.submit[t-1]()
			}
		}
	}
	b.strand(0)
	if deploy > 1 {
		b.wg.Wait()
	}
	b.queries, b.traces = nil, nil
	b.batches++
	b.latency.Observe(time.Since(start).Nanoseconds())
	if obs.On() {
		var nodes1, scanned1 int64
		for i := range b.shards {
			nodes1 += b.shards[i].nodes
			scanned1 += b.shards[i].scanned
		}
		obs.Add(obs.GQueryBatches, 1)
		obs.Add(obs.GQueryServed, b.nq)
		obs.Add(obs.GQueryNodes, nodes1-nodes0)
		obs.Add(obs.GQueryLeafScans, scanned1-scanned0)
	}
}

// traceOf returns query qi's request trace context and its derived
// per-query span id (ChildSpan of the request span, salted with the
// query index — deterministic, collision-free within a request). The
// untraced-run fast path is the tr == nil check the callers hoist.
func traceOf(tr []obs.TraceContext, qi int64) (obs.TraceContext, uint64) {
	if tr == nil {
		return obs.TraceContext{}, 0
	}
	tc := tr[qi]
	if !tc.Valid() {
		return tc, 0
	}
	return tc, obs.ChildSpan(tc.Span, uint64(qi))
}

// strand is one worker's loop: claim a chunk of query indices, answer
// each into this strand's arena, repeat until the batch is drained.
func (b *Batch) strand(id int) {
	if b.blockW > 1 {
		b.strandBlocked(id)
		return
	}
	sh := &b.shards[id]
	f := b.f
	closed := b.closed
	tr := b.traces
	jn := sh.journal != nil
	for {
		lo := b.next.Add(batchChunk) - batchChunk
		if lo >= b.nq {
			return
		}
		hi := lo + batchChunk
		if hi > b.nq {
			hi = b.nq
		}
		b.inj.Stall(nil) // chaos: a lagging serving worker (nil = no-op)
		for qi := lo; qi < hi; qi++ {
			before := len(sh.ids)
			var nodes, scanned int
			leaf := int32(-1)
			var descNs, scanNs, startNs int64
			tc, qspan := traceOf(tr, qi)
			// A client-sampled trace forces the timed path; the strand's
			// own tick still advances so the deterministic cadence of
			// untraced sampling is unchanged. Only tick-selected queries
			// feed the journal's aggregates — a forced query is marked
			// so, and feeds only the exemplars, so traced traffic cannot
			// skew the sampled statistics.
			tick := sh.journal.ShouldSample()
			sampled := tick || tc.Sampled
			if sampled {
				// Sampled timed path: phase-split clock reads bracket the
				// descent and the leaf scan separately, and the event
				// records the destination leaf. Identical answers —
				// DescendPath/ScanLeaf are the two halves the covering
				// kernels are built from.
				q := b.queries[qi]
				t0 := time.Now()
				lf, path := f.DescendPath(q, sh.path[:0])
				t1 := time.Now()
				sh.ids, scanned = f.ScanLeaf(lf, q, closed, sh.ids)
				t2 := time.Now()
				sh.path = path
				nodes = len(path)
				leaf = lf
				descNs, scanNs = t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds()
				if tc.Valid() {
					startNs = t0.UnixNano()
				}
			} else if closed {
				sh.ids, nodes, scanned = f.CoveringClosed(b.queries[qi], sh.ids)
			} else {
				sh.ids, nodes, scanned = f.Covering(b.queries[qi], sh.ids)
			}
			b.spans[qi] = span{shard: int32(id), start: int32(before), end: int32(len(sh.ids))}
			sh.queries++
			sh.nodes += int64(nodes)
			sh.scanned += int64(scanned)
			if jn {
				sh.jbuf[qi-lo] = obs.JournalEvent{
					Batch: b.curBatch, Query: int32(qi), Leaf: leaf,
					Nodes: int32(nodes), Scanned: int32(scanned),
					Reported: int32(len(sh.ids) - before),
					Sampled:  sampled, Forced: sampled && !tick,
					LatencyNs: descNs + scanNs, DescentNs: descNs, ScanNs: scanNs,
					TraceHi: tc.TraceHi, TraceLo: tc.TraceLo, Span: qspan,
					StartNs: startNs,
				}
			}
		}
		if jn {
			sh.journal.Publish(sh.jbuf[:hi-lo])
		}
	}
}

// strandBlocked is strand with leaf-scan query blocking: each chunk is
// answered in two phases. Phase 1 descends every query, recording its
// destination leaf and path length (sampled queries are answered
// completely on the individual timed path here, so the phase-split
// telemetry stays comparable across modes). Phase 2 walks the chunk in
// order, bundling up to blockW not-yet-answered queries that share a
// leaf into one scanLeafBlock pass; each lane's hits are then copied
// into the shard arena and its span recorded. Grouping is O(chunk²)
// pointer-free compares over at most 16 int32s — noise next to one leaf
// scan. Every per-query observable (ids, order, nodes visited,
// candidates scanned, spans, counters) matches the sequential strand.
func (b *Batch) strandBlocked(id int) {
	sh := &b.shards[id]
	f := b.f
	closed := b.closed
	blockW := b.blockW
	tr := b.traces
	jn := sh.journal != nil
	for {
		lo := b.next.Add(batchChunk) - batchChunk
		if lo >= b.nq {
			return
		}
		hi := lo + batchChunk
		if hi > b.nq {
			hi = b.nq
		}
		cn := int(hi - lo)
		b.inj.Stall(nil) // chaos: a lagging serving worker (nil = no-op)
		// Phase 1: descend. DescendPath dispatches to the d=2/3 inlined
		// descents at the hot dimensions and reuses the shard's path
		// scratch, so counting nodes costs nothing extra.
		for k := 0; k < cn; k++ {
			qi := lo + int64(k)
			q := b.queries[qi]
			tc, qspan := traceOf(tr, qi)
			tick := sh.journal.ShouldSample()
			if tick || tc.Sampled {
				before := len(sh.ids)
				t0 := time.Now()
				leaf, path := f.DescendPath(q, sh.path[:0])
				t1 := time.Now()
				var scanned int
				sh.ids, scanned = f.ScanLeaf(leaf, q, closed, sh.ids)
				t2 := time.Now()
				sh.path = path
				descNs, scanNs := t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds()
				var startNs int64
				if tc.Valid() {
					startNs = t0.UnixNano()
				}
				b.spans[qi] = span{shard: int32(id), start: int32(before), end: int32(len(sh.ids))}
				sh.queries++
				sh.nodes += int64(len(path))
				sh.scanned += int64(scanned)
				sh.done[k] = true
				if jn {
					sh.jbuf[k] = obs.JournalEvent{
						Batch: b.curBatch, Query: int32(qi), Leaf: leaf,
						Nodes: int32(len(path)), Scanned: int32(scanned),
						Reported: int32(len(sh.ids) - before),
						Sampled:  true, Forced: !tick,
						LatencyNs: descNs + scanNs, DescentNs: descNs, ScanNs: scanNs,
						TraceHi: tc.TraceHi, TraceLo: tc.TraceLo, Span: qspan,
						StartNs: startNs,
					}
				}
				continue
			}
			leaf, path := f.DescendPath(q, sh.path[:0])
			sh.path = path
			sh.leaves[k] = leaf
			sh.qnodes[k] = int32(len(path))
			sh.done[k] = false
		}
		// Phase 2: bundle same-leaf queries and scan.
		for k := 0; k < cn; k++ {
			if sh.done[k] {
				continue
			}
			leaf := sh.leaves[k]
			w := 0
			var lanes [maxBlockWidth]int
			for m := k; m < cn && w < blockW; m++ {
				if !sh.done[m] && sh.leaves[m] == leaf {
					lanes[w] = m
					sh.done[m] = true
					w++
				}
			}
			if w == 1 {
				qi := lo + int64(k)
				before := len(sh.ids)
				var scanned int
				sh.ids, scanned = f.ScanLeaf(leaf, b.queries[qi], closed, sh.ids)
				b.spans[qi] = span{shard: int32(id), start: int32(before), end: int32(len(sh.ids))}
				sh.queries++
				sh.nodes += int64(sh.qnodes[k])
				sh.scanned += int64(scanned)
				if jn {
					tc, qspan := traceOf(tr, qi)
					sh.jbuf[k] = obs.JournalEvent{
						Batch: b.curBatch, Query: int32(qi), Leaf: leaf,
						Nodes: sh.qnodes[k], Scanned: int32(scanned),
						Reported: int32(len(sh.ids) - before),
						TraceHi:  tc.TraceHi, TraceLo: tc.TraceLo, Span: qspan,
					}
				}
				continue
			}
			for i := 0; i < w; i++ {
				sh.qs[i] = b.queries[lo+int64(lanes[i])]
				sh.outs[i] = sh.outs[i][:0]
			}
			scanned := f.scanLeafBlock(leaf, sh.qs[:w], closed, sh.outs[:w])
			for i := 0; i < w; i++ {
				qi := lo + int64(lanes[i])
				before := len(sh.ids)
				sh.ids = append(sh.ids, sh.outs[i]...)
				b.spans[qi] = span{shard: int32(id), start: int32(before), end: int32(len(sh.ids))}
				sh.queries++
				sh.nodes += int64(sh.qnodes[lanes[i]])
				sh.scanned += int64(scanned)
				if jn {
					tc, qspan := traceOf(tr, qi)
					sh.jbuf[lanes[i]] = obs.JournalEvent{
						Batch: b.curBatch, Query: int32(qi), Leaf: leaf,
						Nodes: sh.qnodes[lanes[i]], Scanned: int32(scanned),
						Reported: int32(len(sh.ids) - before), Blocked: true,
						TraceHi: tc.TraceHi, TraceLo: tc.TraceLo, Span: qspan,
					}
				}
			}
		}
		if jn {
			sh.journal.Publish(sh.jbuf[:cn])
		}
	}
}

// Len returns the number of queries answered by the last Run.
func (b *Batch) Len() int { return len(b.spans) }

// Result returns the ball ids covering query i of the last Run, in
// ascending order. The slice aliases engine-owned storage: it is valid
// until the next Run and must not be modified.
func (b *Batch) Result(i int) []int {
	sp := b.spans[i]
	return b.shards[sp.shard].ids[sp.start:sp.end:sp.end]
}

// BatchStats is a Batch's cumulative served-traffic record.
type BatchStats struct {
	Batches      int64    // Run invocations
	Queries      int64    // queries answered
	NodesVisited int64    // Σ nodes visited across all queries
	LeafScanned  int64    // Σ leaf candidates scanned
	Latency      obs.Hist // per-batch wall-time histogram (ns)
}

// Stats snapshots the engine's cumulative counters. Call between Runs.
func (b *Batch) Stats() BatchStats {
	st := BatchStats{Batches: b.batches, Latency: b.latency.Snapshot()}
	for i := range b.shards {
		st.Queries += b.shards[i].queries
		st.NodesVisited += b.shards[i].nodes
		st.LeafScanned += b.shards[i].scanned
	}
	return st
}
