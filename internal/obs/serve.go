package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// This file holds the serving views the journal's rings are read into:
// a ServeSnapshot merges every strand's cumulative counts and
// histograms (folded at publish time) with the rolling-window
// quantiles, slowest tail, and exemplars derived from the retained
// events at read time — no second store of per-query evidence exists.

// AtomicHist is the race-safe form of the log2 histogram: identical
// bucket semantics (see histBuckets), every field an atomic, so writers
// and any number of Snapshot readers need no lock. Multi-field reads
// under concurrent writes are individually consistent but not mutually
// transactional — a telemetry snapshot may be mid-observation by one
// count, which is the standard Prometheus contract.
type AtomicHist struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Reset arms an AtomicHist for first use (min must start at MaxInt64 so
// the CAS floor works; the zero value's min of 0 would stick). Owners
// call it once before the first Observe.
func (h *AtomicHist) Reset() { h.min.Store(math.MaxInt64) }

// Observe records one value (negatives clamp to 0, as in histogram).
func (h *AtomicHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Snapshot returns the histogram in export form.
func (h *AtomicHist) Snapshot() Hist {
	var plain histogram
	plain.min = math.MaxInt64
	if c := h.count.Load(); c > 0 {
		plain.count = c
		plain.sum = h.sum.Load()
		plain.min = h.min.Load()
		plain.max = h.max.Load()
		for i := range plain.buckets {
			plain.buckets[i] = h.buckets[i].Load()
		}
	}
	return plain.snapshot()
}

// ServeQuantiles is a rolling-window latency summary: nearest-rank
// quantiles over the tick-sampled latencies the rings retain.
type ServeQuantiles struct {
	Window int   `json:"window"` // entries the quantiles were computed over
	P50    int64 `json:"p50_ns"`
	P95    int64 `json:"p95_ns"`
	P99    int64 `json:"p99_ns"`
	P999   int64 `json:"p999_ns"`
}

// ServeSnapshot is a point-in-time, JSON-ready view of a journal's
// serving telemetry: exact served counts, tick-sampled phase-split
// histograms, and — derived from the retained ring — rolling-window
// quantiles, the slowest queries, and the latency exemplars. Counts and
// histograms merge commutatively across strands, so a snapshot of an
// N-strand journal fed a query stream equals a single-strand journal fed
// the same stream (asserted by TestServeMergeMatchesSingleStrand).
type ServeSnapshot struct {
	Strands     int   `json:"strands"`
	Queries     int64 `json:"queries"`
	Sampled     int64 `json:"sampled"`
	SampleEvery int64 `json:"sample_every"`

	Latency Hist `json:"latency_ns"`   // sampled descent+scan
	Descent Hist `json:"descent_ns"`   // sampled descent phase
	Scan    Hist `json:"leaf_scan_ns"` // sampled leaf-scan phase
	Nodes   Hist `json:"nodes_visited"`
	Scanned Hist `json:"leaf_scanned"`

	Window ServeQuantiles `json:"window"`
	// Tail is the TailLen slowest retained tick-sampled queries, slowest
	// first, as journal events (Leaf names the descent's root-to-leaf
	// chain).
	Tail []JournalEvent `json:"tail,omitempty"`

	// LatencyExemplars is the latest traced timed observation per
	// latency bucket among the retained events (ascending Le) — the
	// OpenMetrics exemplar set the /metrics handler attaches to the
	// latency histogram so a bucket count links to a concrete trace id.
	LatencyExemplars []LatencyExemplar `json:"latency_exemplars,omitempty"`
}

// TailLen is how many of the slowest retained tick-sampled queries a
// ServeSnapshot lists.
const TailLen = 16

// LatencyExemplar is one latency bucket's exemplar in export form: the
// bucket's inclusive upper bound, the hex trace id of the most recent
// traced query that landed in it, the observed latency, and when.
type LatencyExemplar struct {
	Le      int64  `json:"le"`
	TraceID string `json:"trace_id"`
	ValueNs int64  `json:"value_ns"`
	UnixNs  int64  `json:"unix_ns"`
}

// ServeSnapshot merges every strand's aggregates and derives the ring
// views. Safe to call while strands publish; each strand is read under
// one lock hold. Nil-safe.
func (j *Journal) ServeSnapshot() *ServeSnapshot {
	if j == nil {
		return nil
	}
	var agg serveAgg
	agg.reset()
	return j.snapshotOf(j.read(false, &agg), &agg)
}

// tailRef locates one retained record during view derivation.
type tailRef struct {
	rec    *journalRec
	pos    uint64
	strand int
}

// slower orders tail candidates: higher latency first, ties broken by
// strand then publication position so the tail is deterministic.
func (a tailRef) slower(b tailRef) bool {
	if la, lb := a.rec.latency(), b.rec.latency(); la != lb {
		return la > lb
	}
	if a.strand != b.strand {
		return a.strand < b.strand
	}
	return a.pos < b.pos
}

func (j *Journal) snapshotOf(copies []strandCopy, agg *serveAgg) *ServeSnapshot {
	snap := &ServeSnapshot{
		Strands: len(copies), Queries: agg.queries, Sampled: agg.sampled,
		SampleEvery: j.SampleEvery(),
		Latency:     agg.latency.snapshot(), Descent: agg.descent.snapshot(),
		Scan: agg.scan.snapshot(), Nodes: agg.nodes.snapshot(),
		Scanned: agg.scanned.snapshot(),
	}
	var window []int64
	var tail []tailRef // slowest first, at most TailLen
	var ex [histBuckets]*journalRec
	for _, c := range copies {
		for i := range c.recs {
			r := &c.recs[i]
			if !r.sampled {
				continue
			}
			lat := r.latency()
			if r.traced() {
				// Latest traced timed observation per bucket wins, forced
				// or tick-sampled alike.
				if b := bucketOf(lat); ex[b] == nil || r.startNs >= ex[b].startNs {
					ex[b] = r
				}
			}
			if r.forced {
				continue
			}
			window = append(window, lat)
			ref := tailRef{rec: r, pos: c.from + uint64(i), strand: c.idx}
			if len(tail) == TailLen && !ref.slower(tail[TailLen-1]) {
				continue
			}
			k := sort.Search(len(tail), func(k int) bool { return ref.slower(tail[k]) })
			if len(tail) < TailLen {
				tail = append(tail, tailRef{})
			}
			copy(tail[k+1:], tail[k:])
			tail[k] = ref
		}
	}
	snap.Window = windowQuantiles(window)
	for _, t := range tail {
		snap.Tail = append(snap.Tail, t.rec.export(t.pos, t.strand))
	}
	for b, r := range ex {
		if r == nil {
			continue
		}
		snap.LatencyExemplars = append(snap.LatencyExemplars, LatencyExemplar{
			Le:      bucketLe(b),
			TraceID: TraceIDString(r.traceHi, r.traceLo),
			ValueNs: r.latency(),
			UnixNs:  r.startNs,
		})
	}
	return snap
}

// windowQuantiles computes nearest-rank quantiles over the merged window
// values (order-independent: the merge sorts, so a multi-strand window
// equals a single-strand window over the same samples).
func windowQuantiles(vals []int64) ServeQuantiles {
	q := ServeQuantiles{Window: len(vals)}
	if len(vals) == 0 {
		return q
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	rank := func(p float64) int64 {
		i := int(math.Ceil(p*float64(len(vals)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(vals) {
			i = len(vals) - 1
		}
		return vals[i]
	}
	q.P50 = rank(0.50)
	q.P95 = rank(0.95)
	q.P99 = rank(0.99)
	q.P999 = rank(0.999)
	return q
}
