package septree

import (
	"testing"

	"sepdc/internal/obs"
)

// TestBlockedBatchIdenticalResults is the query-blocking golden
// contract: for every worker count, dimension, and predicate, the
// blocked engine returns exactly the ids — same order, same counter
// accounting — of the sequential engine, both forced on one structure
// whichever the dimension would pick. queryMix's stored-center bias
// makes same-leaf collisions common, so the grouped scan path is
// exercised heavily, while random queries keep singleton and
// partial-chunk groups in play.
func TestBlockedBatchIdenticalResults(t *testing.T) {
	for _, d := range []int{2, 3, 4, 6} {
		f, _, pts := buildUniform(t, 1200, d, 3, 37, nil)
		queries := queryMix(pts, d, 333, 39)
		for _, workers := range []int{1, 4} {
			seq := NewBatch(f, workers)
			seq.blocked = false
			blk := NewBatch(f, workers)
			blk.blocked = true
			for _, closed := range []bool{false, true} {
				if closed {
					seq.RunClosed(queries)
					blk.RunClosed(queries)
				} else {
					seq.Run(queries)
					blk.Run(queries)
				}
				for i := range queries {
					if !equalInts(seq.Result(i), blk.Result(i)) {
						t.Fatalf("d=%d workers=%d closed=%v query %d: blocked %v, sequential %v",
							d, workers, closed, i, blk.Result(i), seq.Result(i))
					}
				}
			}
			a, bst := seq.Stats(), blk.Stats()
			if a.Queries != bst.Queries || a.NodesVisited != bst.NodesVisited || a.LeafScanned != bst.LeafScanned {
				t.Fatalf("d=%d workers=%d: blocked stats %+v diverge from sequential %+v",
					d, workers, bst, a)
			}
		}
	}
}

// TestBlockedBatchObservedIdentical runs the blocked engine with a
// journal timing every query — which forces every query onto the
// individual sampled path — against an unobserved blocked engine and an
// unobserved sequential one. All three must agree: sampling changes
// which scan routine answers a query, never the answer.
func TestBlockedBatchObservedIdentical(t *testing.T) {
	f, _, pts := buildUniform(t, 1500, 4, 3, 41, nil)
	queries := queryMix(pts, 4, 256, 43)
	seq := NewBatch(f, 4)
	seq.blocked = false
	blk := NewBatch(f, 4)
	blk.blocked = true
	obsBlk := NewBatch(f, 4)
	obsBlk.blocked = true
	j := obs.NewJournal(obs.JournalConfig{SampleEvery: 1}, 4)
	obsBlk.Observe(j)
	seq.Run(queries)
	blk.Run(queries)
	obsBlk.Run(queries)
	for i := range queries {
		if !equalInts(seq.Result(i), blk.Result(i)) || !equalInts(seq.Result(i), obsBlk.Result(i)) {
			t.Fatalf("query %d: sequential %v, blocked %v, observed-blocked %v",
				i, seq.Result(i), blk.Result(i), obsBlk.Result(i))
		}
	}
	if snap := j.ServeSnapshot(); snap.Queries != int64(len(queries)) {
		t.Fatalf("journal saw %d queries, want %d", snap.Queries, len(queries))
	}
}

// TestBlockedBatchZeroAllocSteadyState extends the tier-1 zero-alloc
// assertion to query blocking: once the lane scratch and arenas are
// warm, a blocked Run must not allocate — with and without telemetry.
func TestBlockedBatchZeroAllocSteadyState(t *testing.T) {
	for _, d := range []int{2, 5} {
		f, _, pts := buildUniform(t, 2000, d, 3, 45, nil)
		queries := queryMix(pts, d, 256, 47)
		for _, workers := range []int{1, 4} {
			for _, observed := range []bool{false, true} {
				b := NewBatch(f, workers)
				b.blocked = true
				if observed {
					b.Observe(obs.NewJournal(obs.JournalConfig{SampleEvery: 4}, workers))
				}
				for warm := 0; warm < 3; warm++ {
					b.Run(queries)
				}
				if avg := testing.AllocsPerRun(50, func() { b.Run(queries) }); avg != 0 {
					t.Fatalf("d=%d workers=%d observed=%v: %v allocs per blocked steady-state Run, want 0",
						d, workers, observed, avg)
				}
			}
		}
	}
}

// TestBatchBlocksFromDimension pins the engine's rule: per-query
// scans at d <= 3, full-chunk leaf blocking from d = 4 on.
func TestBatchBlocksFromDimension(t *testing.T) {
	for d, want := range map[int]int{2: 1, 3: 1, 4: batchChunk, 5: batchChunk} {
		f, _, _ := buildUniform(t, 300, d, 2, 49, nil)
		if got := NewBatch(f, 1).BlockWidth(); got != want {
			t.Fatalf("d=%d: block width %d, want %d", d, got, want)
		}
	}
}
