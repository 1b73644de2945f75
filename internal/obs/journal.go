package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// This file is the serving side's one per-query event stream: the
// wide-event journal. Every served query becomes one fixed-size
// structured record in a bounded per-strand ring that newest traffic
// overwrites, so a latency breach can be diagnosed from the exact
// queries around it. The same publish also folds the timed queries into
// cumulative counts and histograms, and every other serving view — the
// rolling-window quantiles, the slowest tail, the OpenMetrics exemplars
// — is derived from the retained ring at read time (serve.go). Design
// constraints, in order:
//
//  1. A detached journal (nil strand) costs one predictable branch per
//     query on the batch hot loop and allocates nothing.
//
//  2. An attached journal must not serialize strands and must not
//     allocate in steady state. The batch engine fills a strand-local
//     scratch array of events while answering a chunk (plain stores, no
//     synchronization — the strand owns the scratch) and publishes the
//     whole chunk with ONE mutex acquisition and one compacting pass
//     into the strand's pre-allocated ring of fixed-size records.
//     Sixteen queries per lock keeps the amortized cost in low
//     single-digit nanoseconds per query.
//
//  3. Full per-query timing is sampled. Bracketing every sub-microsecond
//     query with three clock reads would be a double-digit-percent tax,
//     so a strand times 1 in SampleEvery queries on a deterministic
//     strand-local tick (no RNG, no clock read). A request whose trace
//     context is sampled forces its queries onto the timed path too;
//     those events are marked Forced and feed only the exemplars, so who
//     traces what cannot skew the tick-sampled statistics.
//
//  4. Reading is scrape-path work: it locks each strand once, copies the
//     ring out, and derives everything else from the copy. Two read
//     modes exist — non-consuming (the flight recorder and /metrics want
//     the ring as evidence, repeatedly) and Drain (a streaming consumer
//     wants each event once, with exact dropped-event accounting).

// JournalEvent is one wide event: everything the engine knows about one
// served query, every field fixed-size so rings never allocate.
type JournalEvent struct {
	// Seq is the per-strand publication sequence (1-based, monotone).
	Seq uint64 `json:"seq"`
	// Batch is the engine's Run ordinal (1-based) the query belonged to.
	Batch int64 `json:"batch"`
	// Query is the index within the batch's query slice.
	Query int32 `json:"query"`
	// Strand is the engine strand that answered it.
	Strand int32 `json:"strand"`
	// Leaf is the destination leaf node id, or -1 when the engine
	// answered through a fused path that does not expose it (untimed
	// queries on the unblocked engine). The descent path is the leaf's
	// unique root-to-leaf chain, so the leaf identifies it.
	Leaf int32 `json:"leaf"`
	// Nodes is the descent depth (root-to-leaf nodes visited).
	Nodes int32 `json:"nodes_visited"`
	// Scanned is the leaf candidates tested.
	Scanned int32 `json:"leaf_scanned"`
	// Reported is the covering balls reported.
	Reported int32 `json:"reported"`
	// Sampled marks a fully timed phase-split query; only then are the
	// three latency fields non-zero.
	Sampled bool `json:"sampled"`
	// Forced marks a timed query chosen by its sampled trace context
	// rather than the strand's sample tick. Forced events feed the
	// exemplars but not the counts, histograms, window or tail.
	Forced bool `json:"-"`
	// Blocked marks a query answered by a shared query-blocked leaf scan.
	Blocked bool `json:"blocked"`
	// LatencyNs is always DescentNs + ScanNs: the ring stores the phase
	// split and derives the total (with Seq and Strand) at read time, so
	// the hot path moves fewer bytes per query than the export form.
	LatencyNs int64 `json:"latency_ns"`
	DescentNs int64 `json:"descent_ns"`
	ScanNs    int64 `json:"scan_ns"`

	// TraceHi/TraceLo/Span carry the request's W3C trace context in raw
	// form on the publish path; all three are zero for untraced queries.
	// The hex strings the JSON form wants (TraceID, SpanID) are derived
	// at read time so the hot path never touches a string.
	TraceHi uint64 `json:"-"`
	TraceLo uint64 `json:"-"`
	Span    uint64 `json:"-"`
	// StartNs is the query's wall-clock start (UnixNano), recorded only
	// for sampled traced queries so /traces can place descent/scan spans
	// on an absolute timeline; zero otherwise.
	StartNs int64 `json:"start_unix_ns,omitempty"`
	// TraceID and SpanID are the hex renderings of the raw trace fields,
	// filled by the read path for traced events and empty ("",omitted)
	// everywhere on the publish path.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// Traced reports whether the event carries a trace context.
func (e *JournalEvent) Traced() bool { return e.TraceHi|e.TraceLo != 0 }

// journalRec is the stored form of a JournalEvent: the fields the ring
// must remember. Seq is the ring position + 1, Strand is the owning
// strand's index, LatencyNs is DescentNs + ScanNs, and the TraceID /
// SpanID hex strings render from the raw ids — all derivable, none
// stored. 80 bytes versus the export form's ~130 (with strings) keeps
// write traffic down and retained history per ring byte up; the four
// trace words are zero for untraced queries and cost only their stores.
type journalRec struct {
	batch                    int64
	descentNs, scanNs        int64
	traceHi, traceLo         uint64
	span                     uint64
	startNs                  int64
	query, leaf              int32
	nodes, scanned           int32
	reported                 int32
	sampled, forced, blocked bool
}

func (r *journalRec) latency() int64 { return r.descentNs + r.scanNs }

func (r *journalRec) traced() bool { return r.traceHi|r.traceLo != 0 }

// export renders the record at publication position pos of strand idx.
func (r *journalRec) export(pos uint64, idx int) JournalEvent {
	ev := JournalEvent{
		Seq: pos + 1, Batch: r.batch, Query: r.query,
		Strand: int32(idx), Leaf: r.leaf, Nodes: r.nodes,
		Scanned: r.scanned, Reported: r.reported,
		Sampled: r.sampled, Forced: r.forced, Blocked: r.blocked,
		LatencyNs: r.latency(), DescentNs: r.descentNs, ScanNs: r.scanNs,
		TraceHi: r.traceHi, TraceLo: r.traceLo, Span: r.span,
		StartNs: r.startNs,
	}
	if r.traced() {
		// Hex rendering is scrape-path work: the strings exist only in
		// the export copy, never in the ring.
		ev.TraceID = TraceIDString(r.traceHi, r.traceLo)
		ev.SpanID = SpanIDString(r.span)
	}
	return ev
}

// JournalConfig configures a Journal. The zero value selects the
// defaults noted per field.
type JournalConfig struct {
	// SampleEvery times 1 in SampleEvery queries (rounded up to a power
	// of two; 1 times every query). 0 selects 16.
	SampleEvery int
	// PerStrand is each strand's ring capacity in events. 0 selects 4096.
	PerStrand int
}

const (
	defaultSampleEvery      = 16
	defaultJournalPerStrand = 4096
)

func (c JournalConfig) perStrand() int {
	if c.PerStrand <= 0 {
		return defaultJournalPerStrand
	}
	return c.PerStrand
}

// sampleMask is the tick mask: a query is timed when tick&mask == 0.
func (c JournalConfig) sampleMask() uint64 {
	every := uint64(defaultSampleEvery)
	if c.SampleEvery > 0 {
		every = uint64(c.SampleEvery)
	}
	p := uint64(1)
	for p < every {
		p <<= 1
	}
	return p - 1
}

// Journal is a long-lived, sharded wide-event ring plus the cumulative
// serving aggregates its publishes fold. All methods are nil-safe;
// reads may be called concurrently with publishing.
type Journal struct {
	cfg JournalConfig

	mu      sync.Mutex // guards strand-slice growth only
	strands []*JournalStrand
}

// NewJournal returns a journal with the given strand count (grown on
// demand by Ensure/Strand).
func NewJournal(cfg JournalConfig, strands int) *Journal {
	j := &Journal{cfg: cfg}
	j.Ensure(strands)
	return j
}

// Config returns the journal's configuration.
func (j *Journal) Config() JournalConfig { return j.cfg }

// SampleEvery returns the sampling period (1 = every query).
func (j *Journal) SampleEvery() int64 {
	if j == nil {
		return 0
	}
	return int64(j.cfg.sampleMask() + 1)
}

// Ensure grows the journal to at least n strands. Safe to call
// concurrently with publishing on existing strands (stable pointers,
// slice replaced, never resized in place).
func (j *Journal) Ensure(n int) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.strands) < n {
		j.strands = append(j.strands, newJournalStrand(j, len(j.strands)))
	}
}

// Strand returns strand i, growing the journal if needed. Nil-safe: a
// nil journal hands out a nil strand whose methods all no-op.
func (j *Journal) Strand(i int) *JournalStrand {
	if j == nil {
		return nil
	}
	j.Ensure(i + 1)
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.strands[i]
}

func (j *Journal) strandList() []*JournalStrand {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]*JournalStrand(nil), j.strands...)
}

// JournalStrand is one strand's event ring and aggregates. Publish and
// ShouldSample are driven by one goroutine at a time (the batch engine's
// strand discipline); the strand mutex exists so concurrent reads are
// race-free, and is taken once per published chunk, never per event.
type JournalStrand struct {
	idx  int
	tick uint64 // strand-local sample clock (publisher-owned, never read under mu)
	mask uint64

	mu        sync.Mutex
	ring      []journalRec
	published uint64 // total events ever published
	drained   uint64 // publication position the last Drain consumed through
	dropped   uint64 // events overwritten before any Drain saw them
	agg       serveAgg

	_ [64]byte // keep hot strands off each other's cache lines
}

// serveAgg is the cumulative part of the serving telemetry: counts and
// the five phase-split histograms over the tick-sampled queries. Every
// other view is derived from the ring at read time.
type serveAgg struct {
	queries, sampled                       int64
	latency, descent, scan, nodes, scanned histogram
}

func (a *serveAgg) reset() {
	for _, h := range a.hists() {
		h.min = math.MaxInt64
	}
}

func (a *serveAgg) hists() [5]*histogram {
	return [5]*histogram{&a.latency, &a.descent, &a.scan, &a.nodes, &a.scanned}
}

func (a *serveAgg) merge(o *serveAgg) {
	a.queries += o.queries
	a.sampled += o.sampled
	dst, src := a.hists(), o.hists()
	for i := range dst {
		dst[i].merge(src[i])
	}
}

func newJournalStrand(j *Journal, idx int) *JournalStrand {
	s := &JournalStrand{idx: idx, mask: j.cfg.sampleMask(), ring: make([]journalRec, j.cfg.perStrand())}
	s.agg.reset()
	return s
}

// ShouldSample advances the strand's sample clock and reports whether
// the next query should take the timed phase-split path. Deterministic:
// 1 in SampleEvery ticks. Nil-safe (a nil strand never samples).
func (s *JournalStrand) ShouldSample() bool {
	if s == nil {
		return false
	}
	s.tick++
	return s.tick&s.mask == 0
}

// Publish appends a chunk of events to the strand's ring and folds the
// tick-sampled ones (Sampled && !Forced) into the cumulative aggregates.
// Seq, Strand, and LatencyNs on the input are ignored — they are
// derived at read time (Seq from ring position, Strand from ring
// ownership, LatencyNs as DescentNs + ScanNs). One lock per chunk, no
// per-event modulo (a 64-bit modulo per event is measurable against
// sub-microsecond queries), zero allocations. The caller keeps
// ownership of events.
func (s *JournalStrand) Publish(events []JournalEvent) {
	if s == nil || len(events) == 0 {
		return
	}
	s.mu.Lock()
	n := uint64(len(s.ring))
	// A chunk larger than the ring keeps only its newest n events.
	skip := 0
	if k := uint64(len(events)); k > n {
		skip = int(k - n)
	}
	pos := (s.published + uint64(skip)) % n
	for i := range events {
		e := &events[i]
		if e.Sampled && !e.Forced {
			s.agg.sampled++
			s.agg.latency.observe(e.DescentNs + e.ScanNs)
			s.agg.descent.observe(e.DescentNs)
			s.agg.scan.observe(e.ScanNs)
			s.agg.nodes.observe(int64(e.Nodes))
			s.agg.scanned.observe(int64(e.Scanned))
		}
		if i < skip {
			continue
		}
		s.ring[pos] = journalRec{
			batch: e.Batch, descentNs: e.DescentNs, scanNs: e.ScanNs,
			traceHi: e.TraceHi, traceLo: e.TraceLo, span: e.Span,
			startNs: e.StartNs,
			query:   e.Query, leaf: e.Leaf, nodes: e.Nodes,
			scanned: e.Scanned, reported: e.Reported,
			sampled: e.Sampled, forced: e.Forced, blocked: e.Blocked,
		}
		if pos++; pos == n {
			pos = 0
		}
	}
	s.published += uint64(len(events))
	s.agg.queries += int64(len(events))
	s.mu.Unlock()
}

// strandCopy is one strand's state copied out under one lock hold: the
// retained records oldest first (recs[i] sits at publication position
// from+i) and the accounting, so every view derived from one read
// agrees with every other.
type strandCopy struct {
	idx                int
	from               uint64
	recs               []journalRec
	published, dropped uint64
}

// copyOut copies the strand's retained records under its lock and, when
// agg is non-nil, merges the strand's aggregates into it in the same
// hold. When consume is true the read advances the drain cursor and
// charges overwritten-and-never-seen events to dropped; when false it
// returns the full retained window without touching the accounting.
func (s *JournalStrand) copyOut(consume bool, agg *serveAgg) strandCopy {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := uint64(len(s.ring))
	from := s.published - min(s.published, n) // oldest retained position
	if consume {
		if s.drained > from {
			from = s.drained
		} else {
			s.dropped += from - s.drained
		}
		s.drained = s.published
	}
	c := strandCopy{idx: s.idx, from: from, published: s.published, dropped: s.dropped}
	c.recs = make([]journalRec, 0, s.published-from)
	for pos := from; pos < s.published; pos++ {
		c.recs = append(c.recs, s.ring[pos%n])
	}
	if agg != nil {
		agg.merge(&s.agg)
	}
	return c
}

// accounting returns the strand's publication totals under its lock:
// events ever published, events already overwritten out of the ring
// (whether or not a Drain saw them first), and events overwritten
// before any Drain saw them.
func (s *JournalStrand) accounting() (published, overwritten, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := uint64(len(s.ring))
	return s.published, s.published - min(s.published, n), s.dropped
}

// JournalAccounting is a journal's ring-pressure summary, cheap enough
// for every scrape: no event copying, one brief lock per strand.
type JournalAccounting struct {
	// Published is the events ever published across all strands.
	Published uint64
	// Overwritten is the events the rings have already evicted —
	// published but no longer retained, whether or not a Drain saw them.
	// Overwritten/Published is the ring-saturation ("overwrite") rate: a
	// value near 1 means the rings retain a vanishing fraction of served
	// traffic and a latency breach will have little surrounding evidence
	// left by the time anyone looks. Grow JournalConfig.PerStrand (or
	// drain more often) to lower it.
	Overwritten uint64
	// Dropped is the subset of Overwritten that no Drain ever returned.
	Dropped uint64
}

// OverwriteRate returns Overwritten/Published, or 0 before any publish.
func (a JournalAccounting) OverwriteRate() float64 {
	if a.Published == 0 {
		return 0
	}
	return float64(a.Overwritten) / float64(a.Published)
}

// Accounting sums the ring accounting across strands without copying
// any events — the scrape path's view of journal saturation. Nil-safe.
func (j *Journal) Accounting() JournalAccounting {
	if j == nil {
		return JournalAccounting{}
	}
	var acc JournalAccounting
	for _, s := range j.strandList() {
		pub, over, drop := s.accounting()
		acc.Published += pub
		acc.Overwritten += over
		acc.Dropped += drop
	}
	return acc
}

// JournalDrain is the result of one Snapshot or Drain: the events in a
// deterministic global order plus the ring accounting needed to judge
// how much history the rings are keeping under the current load.
type JournalDrain struct {
	Strands   int            `json:"strands"`
	Capacity  int            `json:"capacity_per_strand"`
	Published uint64         `json:"published"` // events ever published
	Dropped   uint64         `json:"dropped"`   // overwritten before any Drain saw them
	Events    []JournalEvent `json:"events"`
}

// Snapshot returns the journal's currently retained events without
// consuming them — the flight recorder's read. Events are ordered by
// (Batch, Query), a total order since each query index appears once per
// engine Run. Nil-safe.
func (j *Journal) Snapshot() JournalDrain {
	if j == nil {
		return JournalDrain{}
	}
	return j.drainOf(j.read(false, nil))
}

// Drain returns every retained event not returned by a previous Drain
// and advances the drop accounting: events overwritten between drains
// count toward Dropped. Snapshot reads do not consume. Nil-safe.
func (j *Journal) Drain() JournalDrain {
	if j == nil {
		return JournalDrain{}
	}
	return j.drainOf(j.read(true, nil))
}

// Capture is the flight recorder's read: the retained events and the
// serving snapshot derived from the very same ring copy, so every tail
// entry of the snapshot is one of the returned events. Non-consuming.
// Nil-safe (a nil journal returns an empty drain and a nil snapshot).
func (j *Journal) Capture() (JournalDrain, *ServeSnapshot) {
	if j == nil {
		return JournalDrain{}, nil
	}
	var agg serveAgg
	agg.reset()
	copies := j.read(false, &agg)
	return j.drainOf(copies), j.snapshotOf(copies, &agg)
}

func (j *Journal) read(consume bool, agg *serveAgg) []strandCopy {
	strands := j.strandList()
	copies := make([]strandCopy, len(strands))
	for i, s := range strands {
		copies[i] = s.copyOut(consume, agg)
	}
	return copies
}

func (j *Journal) drainOf(copies []strandCopy) JournalDrain {
	d := JournalDrain{Strands: len(copies), Capacity: j.cfg.perStrand()}
	for _, c := range copies {
		d.Published += c.published
		d.Dropped += c.dropped
		for i := range c.recs {
			d.Events = append(d.Events, c.recs[i].export(c.from+uint64(i), c.idx))
		}
	}
	sort.Slice(d.Events, func(a, b int) bool {
		if d.Events[a].Batch != d.Events[b].Batch {
			return d.Events[a].Batch < d.Events[b].Batch
		}
		return d.Events[a].Query < d.Events[b].Query
	})
	return d
}

// WriteJSONL renders a drain as JSON Lines: one event object per line,
// ordered by (Batch, Query), preceded by no header — the accounting
// fields travel separately (flight bundles put them in meta.json; the
// /journal endpoint exposes them as response headers). Every write
// error from w is propagated, matching the BuildReport.WriteText
// discipline: a telemetry sink that silently drops events is worse than
// an error.
func (d JournalDrain) WriteJSONL(w io.Writer) error {
	for i := range d.Events {
		b, err := json.Marshal(&d.Events[i])
		if err != nil {
			return fmt.Errorf("obs: journal event %d: %w", i, err)
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		if _, err := w.Write([]byte{'\n'}); err != nil {
			return err
		}
	}
	return nil
}
