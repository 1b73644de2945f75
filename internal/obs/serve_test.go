package obs

import (
	"math"
	"sync"
	"testing"
)

// synthStream is a deterministic synthetic query stream: latencies and
// traversal shapes with enough spread to land in many buckets and
// exercise the slowest-tail view.
func synthStream(n int) []JournalEvent {
	out := make([]JournalEvent, n)
	for i := range out {
		// A mostly-flat distribution with rare large spikes (the tail).
		lat := int64(200 + (i*37)%400)
		if i%97 == 0 {
			lat = int64(5000 + i*13)
		}
		desc := lat * 2 / 3
		out[i] = JournalEvent{
			Batch:     1,
			Query:     int32(i),
			DescentNs: desc,
			ScanNs:    lat - desc,
			Nodes:     int32(8 + i%7),
			Scanned:   int32(3 + i%29),
			Reported:  int32(i % 5),
		}
	}
	return out
}

// feed publishes one query the way the batch engine does: the strand's
// sample tick decides whether it was timed.
func feed(s *JournalStrand, q JournalEvent, buf []JournalEvent) {
	q.Sampled = s.ShouldSample()
	if !q.Sampled {
		q.DescentNs, q.ScanNs = 0, 0
	}
	buf[0] = q
	s.Publish(buf[:1])
}

// TestServeMergeMatchesSingleStrand is the satellite-4 golden: a
// snapshot merged across N strands fed round-robin must equal a
// single-strand journal fed the same stream in order — histograms
// exactly, window quantiles exactly (rings sized to hold every
// sample), and the same slowest tail.
func TestServeMergeMatchesSingleStrand(t *testing.T) {
	const n = 4096
	stream := synthStream(n)
	cfg := JournalConfig{SampleEvery: 1, PerStrand: n}
	buf := make([]JournalEvent, 1)

	single := NewJournal(cfg, 1)
	s0 := single.Strand(0)
	for _, q := range stream {
		feed(s0, q, buf)
	}

	multi := NewJournal(cfg, 4)
	for i, q := range stream {
		feed(multi.Strand(i%4), q, buf)
	}

	a, b := single.ServeSnapshot(), multi.ServeSnapshot()
	if a.Queries != int64(n) || b.Queries != int64(n) {
		t.Fatalf("queries: single=%d multi=%d want %d", a.Queries, b.Queries, n)
	}
	if a.Sampled != b.Sampled {
		t.Fatalf("sampled: single=%d multi=%d", a.Sampled, b.Sampled)
	}
	for _, c := range []struct {
		name string
		x, y Hist
	}{
		{"latency", a.Latency, b.Latency},
		{"descent", a.Descent, b.Descent},
		{"scan", a.Scan, b.Scan},
		{"nodes", a.Nodes, b.Nodes},
		{"scanned", a.Scanned, b.Scanned},
	} {
		if !histEqual(c.x, c.y) {
			t.Errorf("%s: single=%+v multi=%+v", c.name, c.x, c.y)
		}
	}
	if a.Window != b.Window {
		t.Errorf("window quantiles diverge: single=%+v multi=%+v", a.Window, b.Window)
	}
	// Both tails are the TailLen slowest of the same retained samples.
	if len(a.Tail) != TailLen || len(b.Tail) != TailLen {
		t.Fatalf("tail sizes: single=%d multi=%d", len(a.Tail), len(b.Tail))
	}
	for i := range a.Tail {
		if a.Tail[i].LatencyNs != b.Tail[i].LatencyNs || a.Tail[i].Query != b.Tail[i].Query {
			t.Errorf("tail[%d]: single=%+v multi=%+v", i, a.Tail[i], b.Tail[i])
		}
		if i > 0 && a.Tail[i].LatencyNs > a.Tail[i-1].LatencyNs {
			t.Errorf("tail not slowest first at %d", i)
		}
	}
}

func histEqual(a, b Hist) bool {
	if a.Count != b.Count || a.Sum != b.Sum || a.Min != b.Min || a.Max != b.Max || len(a.Buckets) != len(b.Buckets) {
		return false
	}
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			return false
		}
	}
	return true
}

// TestServeSampling: with SampleEvery=8 exactly 1 in 8 queries is
// sampled, deterministically, and exact query counts are unaffected.
func TestServeSampling(t *testing.T) {
	j := NewJournal(JournalConfig{SampleEvery: 8}, 1)
	s := j.Strand(0)
	buf := make([]JournalEvent, 1)
	for i := 0; i < 800; i++ {
		feed(s, JournalEvent{DescentNs: 60, ScanNs: 40, Nodes: 4, Scanned: 2}, buf)
	}
	snap := j.ServeSnapshot()
	if snap.Queries != 800 {
		t.Errorf("queries = %d, want 800", snap.Queries)
	}
	if snap.Sampled != 100 {
		t.Errorf("sampled = %d, want 100 (1 in 8)", snap.Sampled)
	}
	if snap.SampleEvery != 8 {
		t.Errorf("sample_every = %d, want 8", snap.SampleEvery)
	}
	if snap.Latency.Count != 100 {
		t.Errorf("latency count = %d, want 100", snap.Latency.Count)
	}
	// Non-power-of-two periods round up.
	if got := NewJournal(JournalConfig{SampleEvery: 5}, 0).SampleEvery(); got != 8 {
		t.Errorf("SampleEvery 5 rounds to %d, want 8", got)
	}
}

// TestServeNilSafety: every method must be a no-op through nil
// receivers, and the nil fast path must not allocate.
func TestServeNilSafety(t *testing.T) {
	var j *Journal
	if j.ServeSnapshot() != nil {
		t.Fatal("nil journal produced a snapshot")
	}
	j.Ensure(4)
	s := j.Strand(2)
	if s != nil {
		t.Fatal("nil journal handed out a strand")
	}
	if s.ShouldSample() {
		t.Fatal("nil strand wants a sample")
	}
	if j.SampleEvery() != 0 {
		t.Fatalf("nil journal SampleEvery = %d", j.SampleEvery())
	}
	buf := []JournalEvent{{Sampled: true, DescentNs: 1, ScanNs: 2}}
	allocs := testing.AllocsPerRun(1000, func() {
		if s.ShouldSample() {
			t.Fatal("nil strand sampled")
		}
		s.Publish(buf)
	})
	if allocs != 0 {
		t.Fatalf("nil serve path allocated %.1f allocs/op", allocs)
	}
}

// TestServeRecordSteadyStateZeroAllocs: once the ring is warm, publishing
// tick-sampled events — ring write plus the five histogram folds — must
// not allocate.
func TestServeRecordSteadyStateZeroAllocs(t *testing.T) {
	j := NewJournal(JournalConfig{SampleEvery: 1, PerStrand: 64}, 1)
	s := j.Strand(0)
	buf := make([]JournalEvent, 1)
	for i := 0; i < 64; i++ { // warm: wrap the ring once
		feed(s, JournalEvent{DescentNs: int64(600 + i), ScanNs: 400, Nodes: 5, Scanned: 9}, buf)
	}
	lat := int64(2000)
	allocs := testing.AllocsPerRun(1000, func() {
		lat++
		feed(s, JournalEvent{DescentNs: lat * 3 / 5, ScanNs: lat * 2 / 5, Nodes: 6, Scanned: 11, Leaf: 17}, buf)
	})
	if allocs != 0 {
		t.Fatalf("warm record path allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestServeConcurrentSnapshot races publishing strands against
// ServeSnapshot readers; run under -race this is the satellite-4 race
// assertion.
func TestServeConcurrentSnapshot(t *testing.T) {
	j := NewJournal(JournalConfig{SampleEvery: 2, PerStrand: 128}, 4)
	var recorders sync.WaitGroup
	for w := 0; w < 4; w++ {
		recorders.Add(1)
		go func(w int) {
			defer recorders.Done()
			s := j.Strand(w)
			buf := make([]JournalEvent, 1)
			for i := 0; i < 20000; i++ {
				feed(s, JournalEvent{
					DescentNs: int64(60 + i%600),
					ScanNs:    int64(40 + i%400),
					Nodes:     int32(3 + i%9),
					Scanned:   int32(i % 31),
					Leaf:      int32(w),
				}, buf)
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := j.ServeSnapshot()
				if snap.Queries < snap.Sampled || int64(snap.Window.Window) > snap.Sampled {
					t.Errorf("implausible snapshot: queries=%d sampled=%d window=%d",
						snap.Queries, snap.Sampled, snap.Window.Window)
					return
				}
			}
		}()
	}
	recorders.Wait()
	close(stop)
	readers.Wait()
	snap := j.ServeSnapshot()
	if snap.Queries != 4*20000 {
		t.Fatalf("queries = %d, want %d", snap.Queries, 4*20000)
	}
	if snap.Sampled != snap.Queries/2 {
		t.Fatalf("sampled = %d, want %d", snap.Sampled, snap.Queries/2)
	}
	// The window covers exactly the sampled events the rings retain.
	if snap.Window.Window != 4*128/2 {
		t.Fatalf("window = %d, want %d", snap.Window.Window, 4*128/2)
	}
}

// TestServeViewsFollowTheRing: the window, tail and exemplars are read
// from the retained events, so a slow query overwritten out of the ring
// leaves the tail while the cumulative histograms keep counting it;
// forced (trace-sampled) events ride only the exemplars.
func TestServeViewsFollowTheRing(t *testing.T) {
	j := NewJournal(JournalConfig{SampleEvery: 1, PerStrand: 4}, 1)
	s := j.Strand(0)
	tc := GenTrace(5, 1)
	s.Publish([]JournalEvent{
		{Query: 0, Sampled: true, DescentNs: 9000, ScanNs: 1000, Leaf: 3},
		{Query: 1, Sampled: true, Forced: true, DescentNs: 700, ScanNs: 300,
			TraceHi: tc.TraceHi, TraceLo: tc.TraceLo, StartNs: 42},
	})
	snap := j.ServeSnapshot()
	if snap.Sampled != 1 || snap.Latency.Count != 1 || snap.Window.Window != 1 {
		t.Fatalf("forced event fed the aggregates: %+v", snap)
	}
	if len(snap.Tail) != 1 || snap.Tail[0].LatencyNs != 10000 || snap.Tail[0].Leaf != 3 {
		t.Fatalf("tail = %+v, want the one tick-sampled query", snap.Tail)
	}
	if len(snap.LatencyExemplars) != 1 || snap.LatencyExemplars[0].ValueNs != 1000 ||
		snap.LatencyExemplars[0].TraceID != tc.TraceIDString() || snap.LatencyExemplars[0].UnixNs != 42 {
		t.Fatalf("exemplars = %+v, want the forced traced query", snap.LatencyExemplars)
	}

	// Four fast queries overwrite both events out of the ring of 4.
	for q := int32(2); q < 6; q++ {
		s.Publish([]JournalEvent{{Query: q, Sampled: true, DescentNs: 100, ScanNs: 50}})
	}
	snap = j.ServeSnapshot()
	if snap.Latency.Count != 5 || snap.Latency.Max != 10000 {
		t.Fatalf("cumulative latency = %+v, want 5 observations up to 10000", snap.Latency)
	}
	if snap.Window.Window != 4 || snap.Window.P999 != 150 {
		t.Fatalf("window = %+v, want the 4 retained fast queries", snap.Window)
	}
	if len(snap.Tail) != 4 || snap.Tail[0].LatencyNs != 150 {
		t.Fatalf("tail = %+v, want only retained queries", snap.Tail)
	}
	if len(snap.LatencyExemplars) != 0 {
		t.Fatalf("overwritten exemplar survived: %+v", snap.LatencyExemplars)
	}
}

// TestHistogramBoundaries is the satellite-2 table-driven audit: values
// exactly on a power-of-two edge must open the next bucket, bucket 0
// holds only zero, and the overflow top bucket exports Le=MaxInt64.
func TestHistogramBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		wantLe int64
	}{
		{0, 0},
		{1, 1}, // 2^0 opens bucket 1 (le=1)
		{2, 3}, // 2^1 opens bucket 2 (le=3)
		{3, 3},
		{4, 7}, // 2^2 opens bucket 3
		{7, 7},
		{8, 15},
		{1 << 10, 1<<11 - 1},   // 1024 excluded from le=1023
		{1<<10 - 1, 1<<10 - 1}, // 1023 is le=1023's top value
		{1 << 20, 1<<21 - 1},
		{1<<38 - 1, 1<<38 - 1},   // last value below the overflow bucket
		{1 << 38, math.MaxInt64}, // first overflow value
		{1 << 45, math.MaxInt64}, // deep overflow still clamps
		{math.MaxInt64, math.MaxInt64},
		{-17, 0}, // negatives clamp to the zero bucket
	}
	for _, c := range cases {
		var h histogram
		h.min = math.MaxInt64
		h.observe(c.v)
		s := h.snapshot()
		if len(s.Buckets) != 1 {
			t.Fatalf("v=%d: %d buckets, want 1", c.v, len(s.Buckets))
		}
		if s.Buckets[0].Le != c.wantLe || s.Buckets[0].Count != 1 {
			t.Errorf("v=%d: bucket le=%d count=%d, want le=%d count=1",
				c.v, s.Buckets[0].Le, s.Buckets[0].Count, c.wantLe)
		}
		// AtomicHist must agree bucket for bucket.
		var ah AtomicHist
		ah.Reset()
		ah.Observe(c.v)
		as := ah.Snapshot()
		if len(as.Buckets) != 1 || as.Buckets[0] != s.Buckets[0] {
			t.Errorf("v=%d: AtomicHist bucket %+v != histogram bucket %+v",
				c.v, as.Buckets, s.Buckets)
		}
	}
}

// TestWindowQuantiles: nearest-rank definition on a known window.
func TestWindowQuantiles(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i + 1) // 1..1000
	}
	q := windowQuantiles(vals)
	if q.Window != 1000 || q.P50 != 500 || q.P95 != 950 || q.P99 != 990 || q.P999 != 999 {
		t.Fatalf("quantiles = %+v", q)
	}
	if z := windowQuantiles(nil); z.Window != 0 || z.P50 != 0 {
		t.Fatalf("empty quantiles = %+v", z)
	}
}
