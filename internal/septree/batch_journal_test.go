package septree

import (
	"testing"
	"time"

	"sepdc/internal/chaos"
	"sepdc/internal/obs"
)

// TestJournaledBatchIdenticalResults: attaching a journal must not
// change a single answer or engine counter, in every serving mode
// (sequential, parallel, blocked).
func TestJournaledBatchIdenticalResults(t *testing.T) {
	f, _, pts := buildUniform(t, 1200, 3, 3, 29, nil)
	queries := queryMix(pts, 3, 333, 31)
	for _, workers := range []int{1, 4} {
		for _, blockW := range []int{1, 4} {
			plain := NewBatch(f, workers)
			plain.SetBlockWidth(blockW)
			journaled := NewBatch(f, workers)
			journaled.SetBlockWidth(blockW)
			journaled.Observe(obs.NewJournal(obs.JournalConfig{SampleEvery: 4, PerStrand: 512}, workers))
			for _, closed := range []bool{false, true} {
				if closed {
					plain.RunClosed(queries)
					journaled.RunClosed(queries)
				} else {
					plain.Run(queries)
					journaled.Run(queries)
				}
				for i := range queries {
					if !equalInts(plain.Result(i), journaled.Result(i)) {
						t.Fatalf("workers=%d blockW=%d closed=%v query %d: journaled %v, plain %v",
							workers, blockW, closed, i, journaled.Result(i), plain.Result(i))
					}
				}
			}
			a, b := plain.Stats(), journaled.Stats()
			if a.Queries != b.Queries || a.NodesVisited != b.NodesVisited || a.LeafScanned != b.LeafScanned {
				t.Fatalf("workers=%d blockW=%d: journaled stats %+v diverge from plain %+v",
					workers, blockW, b, a)
			}
		}
	}
}

// TestJournaledBatchEventCorrectness: every served query appears exactly
// once per Run, and the events' per-query fields reconcile with the
// engine's exact counters and the answers read back through Result.
func TestJournaledBatchEventCorrectness(t *testing.T) {
	f, _, pts := buildUniform(t, 1500, 2, 3, 7, nil)
	queries := queryMix(pts, 2, 300, 13)
	for _, blockW := range []int{1, 4} {
		b := NewBatch(f, 4)
		b.SetBlockWidth(blockW)
		// Big enough that even one strand serving the whole load (pool
		// degraded to inline on a saturated box) keeps both Runs' events.
		j := obs.NewJournal(obs.JournalConfig{SampleEvery: 4, PerStrand: 2048}, 4)
		b.Observe(j)
		b.Run(queries)
		b.Run(queries)

		d := j.Snapshot()
		if d.Published != uint64(2*len(queries)) {
			t.Fatalf("blockW=%d: published %d events, want %d", blockW, d.Published, 2*len(queries))
		}
		// Exactly one event per (batch, query), batches stamped 1 and 2.
		seen := map[[2]int64]bool{}
		var nodes, scanned int64
		sampled := 0
		for _, ev := range d.Events {
			key := [2]int64{ev.Batch, int64(ev.Query)}
			if seen[key] {
				t.Fatalf("blockW=%d: duplicate event %+v", blockW, ev)
			}
			seen[key] = true
			if ev.Batch != 1 && ev.Batch != 2 {
				t.Fatalf("blockW=%d: batch ordinal %d", blockW, ev.Batch)
			}
			if ev.Query < 0 || int(ev.Query) >= len(queries) {
				t.Fatalf("blockW=%d: query id %d out of range", blockW, ev.Query)
			}
			if ev.Nodes < 1 {
				t.Fatalf("blockW=%d: event visited %d nodes", blockW, ev.Nodes)
			}
			if ev.Leaf >= 0 && int(ev.Leaf) >= f.NumNodes() {
				t.Fatalf("blockW=%d: leaf %d out of range", blockW, ev.Leaf)
			}
			if blockW > 1 && ev.Leaf < 0 {
				// The blocked engine always knows the destination leaf.
				t.Fatalf("blockW=%d: blocked-mode event lost its leaf: %+v", blockW, ev)
			}
			if ev.Sampled {
				sampled++
				if ev.LatencyNs != ev.DescentNs+ev.ScanNs || ev.LatencyNs <= 0 {
					t.Fatalf("blockW=%d: sampled latency %d != %d + %d",
						blockW, ev.LatencyNs, ev.DescentNs, ev.ScanNs)
				}
				if ev.Blocked {
					t.Fatalf("blockW=%d: sampled query claimed blocked: %+v", blockW, ev)
				}
			}
			if ev.Batch == 2 {
				// The second Run's results are still addressable.
				if got := int32(len(b.Result(int(ev.Query)))); got != ev.Reported {
					t.Fatalf("blockW=%d: query %d reported %d, Result has %d",
						blockW, ev.Query, ev.Reported, got)
				}
				nodes += int64(ev.Nodes)
				scanned += int64(ev.Scanned)
			}
		}
		if len(seen) != 2*len(queries) {
			t.Fatalf("blockW=%d: %d distinct events, want %d", blockW, len(seen), 2*len(queries))
		}
		if sampled == 0 {
			t.Fatalf("blockW=%d: no sampled events at shift 2", blockW)
		}
		// Nodes reconcile with the engine's exact counter for one Run:
		// unblocked-mode scanned is exact too; blocked lanes share a scan,
		// so each lane charges the full pass (matching Stats accounting).
		st := b.Stats()
		if nodes != st.NodesVisited/2 {
			t.Fatalf("blockW=%d: journal nodes %d, engine %d per run", blockW, nodes, st.NodesVisited/2)
		}
		if scanned != st.LeafScanned/2 {
			t.Fatalf("blockW=%d: journal scanned %d, engine %d per run", blockW, scanned, st.LeafScanned/2)
		}
	}
}

// TestJournaledBatchZeroAllocSteadyState extends the zero-alloc
// assertion to the journaled path: a journal attached with sampling
// live, warm Runs must not allocate — the acceptance bar for leaving the
// flight recorder on in production.
func TestJournaledBatchZeroAllocSteadyState(t *testing.T) {
	f, _, pts := buildUniform(t, 2000, 2, 3, 5, nil)
	queries := queryMix(pts, 2, 256, 9)
	for _, workers := range []int{1, 4} {
		for _, blockW := range []int{1, 4} {
			b := NewBatch(f, workers)
			b.SetBlockWidth(blockW)
			b.Observe(obs.NewJournal(obs.JournalConfig{SampleEvery: 4, PerStrand: 1024}, workers))
			for warm := 0; warm < 3; warm++ {
				b.Run(queries)
			}
			if avg := testing.AllocsPerRun(50, func() { b.Run(queries) }); avg != 0 {
				t.Fatalf("workers=%d blockW=%d: %v allocs per journaled steady-state Run, want 0",
					workers, blockW, avg)
			}
		}
	}
}

// TestBatchChaosStallInflatesLatency: the serving chaos seam must slow
// per-batch wall time without touching answers — the lever the SLO
// integration test pulls.
func TestBatchChaosStallInflatesLatency(t *testing.T) {
	f, _, pts := buildUniform(t, 600, 2, 3, 3, nil)
	queries := queryMix(pts, 2, 64, 5)

	plain := NewBatch(f, 1)
	plain.Run(queries)

	inj, err := chaos.Parse("stall=5ms")
	if err != nil {
		t.Fatal(err)
	}
	stalled := NewBatch(f, 1)
	stalled.Chaos(inj)
	start := time.Now()
	stalled.Run(queries)
	elapsed := time.Since(start)

	// 64 queries / 16-per-chunk = 4 chunks -> >= 20ms of injected stall.
	if elapsed < 20*time.Millisecond {
		t.Fatalf("stalled Run took %v, want >= 20ms of injected stall", elapsed)
	}
	for i := range queries {
		if !equalInts(plain.Result(i), stalled.Result(i)) {
			t.Fatalf("query %d: stalled %v, plain %v", i, stalled.Result(i), plain.Result(i))
		}
	}
	// Detach restores full speed semantics (nil injector branch).
	stalled.Chaos(nil)
	start = time.Now()
	stalled.Run(queries)
	if e := time.Since(start); e > 10*time.Millisecond {
		t.Fatalf("detached Run still stalled: %v", e)
	}
}

// TestJournalDetach: a nil journal detaches cleanly and publishing stops.
func TestJournalDetach(t *testing.T) {
	f, _, pts := buildUniform(t, 600, 2, 3, 3, nil)
	queries := queryMix(pts, 2, 64, 5)
	b := NewBatch(f, 2)
	j := obs.NewJournal(obs.JournalConfig{PerStrand: 256}, 2)
	b.Observe(j)
	b.Run(queries)
	if d := j.Snapshot(); d.Published != uint64(len(queries)) {
		t.Fatalf("published %d, want %d", d.Published, len(queries))
	}
	b.Observe(nil)
	b.Run(queries)
	if d := j.Snapshot(); d.Published != uint64(len(queries)) {
		t.Fatalf("detached engine still published: %d", d.Published)
	}
}

// BenchmarkJournaledBatch times steady-state serving with and without
// the journal attached — the per-query cost of wide-event emission in
// isolation (the BENCH_knn.json obs_overhead section measures the same
// thing end-to-end, with and without tracing).
func BenchmarkJournaledBatch(b *testing.B) {
	f, _, pts := buildUniform(b, 100000, 2, 4, 1, nil)
	queries := queryMix(pts, 2, 4096, 99)
	for _, mode := range []string{"nil", "journal"} {
		b.Run(mode, func(b *testing.B) {
			bt := NewBatch(f, 1)
			if mode == "journal" {
				bt.Observe(obs.NewJournal(obs.JournalConfig{}, 1))
			}
			bt.Run(queries)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt.Run(queries)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/query")
		})
	}
}
