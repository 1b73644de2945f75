package septree

import (
	"testing"

	"sepdc/internal/obs"
)

// TestBlockedBatchIdenticalResults is the query-blocking golden
// contract: for every block width, worker count, dimension, and
// predicate, the blocked engine returns exactly the ids — same order,
// same counter accounting — of the sequential engine. queryMix's
// stored-center bias makes same-leaf collisions common, so the grouped
// scan path is exercised heavily, while random queries keep singleton
// and partial-width groups in play.
func TestBlockedBatchIdenticalResults(t *testing.T) {
	for _, d := range []int{2, 3, 4, 6} {
		f, _, pts := buildUniform(t, 1200, d, 3, 37, nil)
		queries := queryMix(pts, d, 333, 39)
		for _, workers := range []int{1, 4} {
			for _, width := range []int{2, 4, 8} {
				seq := NewBatch(f, workers)
				blk := NewBatch(f, workers)
				blk.SetBlockWidth(width)
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
							t.Fatalf("d=%d workers=%d width=%d closed=%v query %d: blocked %v, sequential %v",
								d, workers, width, closed, i, blk.Result(i), seq.Result(i))
						}
					}
				}
				a, bst := seq.Stats(), blk.Stats()
				if a.Queries != bst.Queries || a.NodesVisited != bst.NodesVisited || a.LeafScanned != bst.LeafScanned {
					t.Fatalf("d=%d workers=%d width=%d: blocked stats %+v diverge from sequential %+v",
						d, workers, width, bst, a)
				}
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
	blk := NewBatch(f, 4)
	blk.SetBlockWidth(4)
	obsBlk := NewBatch(f, 4)
	obsBlk.SetBlockWidth(4)
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
				b.SetBlockWidth(8)
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

// TestSetBlockWidthClamps pins the clamp and the width-1 off switch.
func TestSetBlockWidthClamps(t *testing.T) {
	f, _, pts := buildUniform(t, 600, 2, 2, 49, nil)
	b := NewBatch(f, 1)
	if b.BlockWidth() != 1 {
		t.Fatalf("default width %d, want 1", b.BlockWidth())
	}
	b.SetBlockWidth(100)
	if b.BlockWidth() != maxBlockWidth {
		t.Fatalf("width after SetBlockWidth(100) = %d, want %d", b.BlockWidth(), maxBlockWidth)
	}
	b.SetBlockWidth(-3)
	if b.BlockWidth() != 1 {
		t.Fatalf("width after SetBlockWidth(-3) = %d, want 1", b.BlockWidth())
	}
	queries := queryMix(pts, 2, 64, 51)
	b.Run(queries)
	if b.Len() != len(queries) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(queries))
	}
}
