package septree

import (
	"fmt"
	"testing"

	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

// queryMix produces a mix of stored centers and fresh random points —
// queries on both the boundary-heavy and generic paths.
func queryMix(pts []vec.Vec, d, n int, seed uint64) [][]float64 {
	g := xrand.New(seed)
	out := make([][]float64, n)
	for i := range out {
		if i%3 == 0 {
			out[i] = pts[g.IntN(len(pts))]
		} else {
			out[i] = g.InCube(d)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFrozenMatchesTree is the layout-correctness contract: the built
// structure returns exactly the ids, in ascending order, of
// the brute-force predicate over the neighborhood system — for both the
// open and closed predicates, across dimensions, distributions, and
// degenerate (forced-leaf) trees — and counts as visited exactly the
// nodes of its DescendPath route.
func TestFrozenMatchesTree(t *testing.T) {
	g := xrand.New(7)
	for _, d := range []int{1, 2, 3, 4} {
		for _, dist := range []pointgen.Dist{pointgen.UniformCube, pointgen.Clustered, pointgen.Annulus} {
			pts := pointgen.Dedup(pointgen.MustGenerate(dist, 900, d, g.Split()))
			sys := nbrsys.KNeighborhood(pts, 3)
			f, err := Build(sys, g.Split(), nil)
			if err != nil {
				t.Fatalf("build d=%d %s: %v", d, dist, err)
			}
			if f.StoredBalls() != f.Stats.TotalStored {
				t.Fatalf("stored balls %d, want %d", f.StoredBalls(), f.Stats.TotalStored)
			}
			if f.NumLeaves() != f.Stats.Leaves {
				t.Fatalf("leaves %d, want %d", f.NumLeaves(), f.Stats.Leaves)
			}
			var buf []int
			var path []int32
			for trial := 0; trial < 150; trial++ {
				var q vec.Vec
				if trial%2 == 0 {
					q = pts[g.IntN(len(pts))]
				} else {
					q = vec.Vec(g.InCube(d))
				}
				var visited int
				buf, visited, _ = f.Covering(q, buf[:0])
				if want := bruteCovering(sys, q, false); !equalInts(buf, want) {
					t.Fatalf("d=%d %s trial %d: frozen %v, brute %v", d, dist, trial, buf, want)
				}
				_, path = f.DescendPath(q, path[:0])
				if visited != len(path) {
					t.Fatalf("d=%d trial %d: frozen visited %d, path %d", d, trial, visited, len(path))
				}
				buf, visited, _ = f.CoveringClosed(q, buf[:0])
				if want := bruteCovering(sys, q, true); !equalInts(buf, want) {
					t.Fatalf("d=%d %s trial %d closed: frozen %v, brute %v", d, dist, trial, buf, want)
				}
				if visited != len(path) {
					t.Fatalf("d=%d trial %d closed: frozen visited %d, path %d", d, trial, visited, len(path))
				}
			}
		}
	}
}

// TestFrozenForcedLeaf builds a tree degenerate enough to be one
// oversized leaf (identical centers) and checks queries still answer.
func TestFrozenForcedLeaf(t *testing.T) {
	centers := make([]vec.Vec, 100)
	radii := make([]float64, 100)
	for i := range centers {
		centers[i] = vec.Of(1, 2)
		radii[i] = 0.5
	}
	sys := &nbrsys.System{Centers: centers, Radii: radii}
	f, err := Build(sys, xrand.New(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := f.Covering([]float64{1.1, 2.1}, nil)
	if len(got) != 100 {
		t.Fatalf("inside point covered by %d balls, want 100", len(got))
	}
	got, _, _ = f.Covering([]float64{9, 9}, got[:0])
	if len(got) != 0 {
		t.Fatalf("far point covered by %d balls, want 0", len(got))
	}
}

// TestBatchMatchesSequential checks the engine at several strand counts:
// per query, Result(i) must be byte-identical to a sequential frozen (and
// brute-force) answer, for both predicates.
func TestBatchMatchesSequential(t *testing.T) {
	f, sys, pts := buildUniform(t, 1500, 2, 3, 11, nil)
	queries := queryMix(pts, 2, 501, 23)
	for _, workers := range []int{1, 2, 4, 7} {
		b := NewBatch(f, workers)
		for _, closed := range []bool{false, true} {
			if closed {
				b.RunClosed(queries)
			} else {
				b.Run(queries)
			}
			if b.Len() != len(queries) {
				t.Fatalf("Len %d, want %d", b.Len(), len(queries))
			}
			var buf []int
			for i, q := range queries {
				want := bruteCovering(sys, q, closed)
				if closed {
					buf, _, _ = f.CoveringClosed(q, buf[:0])
				} else {
					buf, _, _ = f.Covering(q, buf[:0])
				}
				got := b.Result(i)
				if !equalInts(got, want) {
					t.Fatalf("workers=%d closed=%v query %d: batch %v, brute %v", workers, closed, i, got, want)
				}
				if !equalInts(got, buf) {
					t.Fatalf("workers=%d closed=%v query %d: batch %v, frozen %v", workers, closed, i, got, buf)
				}
			}
		}
		st := b.Stats()
		if st.Batches != 2 || st.Queries != int64(2*len(queries)) {
			t.Fatalf("stats %+v: want 2 batches, %d queries", st, 2*len(queries))
		}
		if st.NodesVisited <= 0 || st.LeafScanned <= 0 || st.Latency.Count != 2 {
			t.Fatalf("stats not populated: %+v", st)
		}
	}
}

// TestBatchZeroAllocSteadyState is the zero-alloc contract at the engine
// layer: once arenas are warm, a Run performs no heap allocation.
func TestBatchZeroAllocSteadyState(t *testing.T) {
	f, _, pts := buildUniform(t, 2000, 2, 3, 5, nil)
	queries := queryMix(pts, 2, 256, 9)
	for _, workers := range []int{1, 4} {
		b := NewBatch(f, workers)
		for warm := 0; warm < 3; warm++ {
			b.Run(queries)
		}
		if avg := testing.AllocsPerRun(50, func() { b.Run(queries) }); avg != 0 {
			t.Fatalf("workers=%d: %v allocs per steady-state Run, want 0", workers, avg)
		}
	}
}

// TestBatchEnginesConcurrent runs independent engines over one shared
// Frozen from many goroutines — the immutability contract under -race.
func TestBatchEnginesConcurrent(t *testing.T) {
	f, sys, pts := buildUniform(t, 1200, 3, 2, 17, nil)
	queries := queryMix(pts, 3, 300, 41)
	want := make([][]int, len(queries))
	for i, q := range queries {
		want[i] = bruteCovering(sys, q, false)
	}
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			b := NewBatch(f, 3)
			for rep := 0; rep < 8; rep++ {
				b.Run(queries)
				for i := range queries {
					if !equalInts(b.Result(i), want[i]) {
						done <- fmt.Errorf("result mismatch at query %d", i)
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchTinyAndEmpty covers the edge sizes: zero queries, one query,
// fewer queries than strands.
func TestBatchTinyAndEmpty(t *testing.T) {
	f, sys, pts := buildUniform(t, 300, 2, 2, 29, nil)
	b := NewBatch(f, 8)
	b.Run(nil)
	if b.Len() != 0 {
		t.Fatalf("empty batch Len = %d", b.Len())
	}
	q := [][]float64{pts[0]}
	b.Run(q)
	want := bruteCovering(sys, q[0], false)
	if !equalInts(b.Result(0), want) {
		t.Fatalf("single-query batch %v, want %v", b.Result(0), want)
	}
}
