package septree

import (
	"testing"

	"sepdc/internal/obs"
)

// TestObservedBatchIdenticalResults: with a journal timing EVERY query
// (the worst case for divergence), answers and counter accounting must
// be bit-identical to an unobserved engine — the sampled timed path is
// the same two kernels the covering paths are built from.
func TestObservedBatchIdenticalResults(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		f, _, pts := buildUniform(t, 1200, d, 3, 29, nil)
		queries := queryMix(pts, d, 333, 31)
		for _, workers := range []int{1, 4} {
			plain := NewBatch(f, workers)
			observed := NewBatch(f, workers)
			observed.Observe(obs.NewJournal(obs.JournalConfig{SampleEvery: 1}, workers))
			for _, closed := range []bool{false, true} {
				if closed {
					plain.RunClosed(queries)
					observed.RunClosed(queries)
				} else {
					plain.Run(queries)
					observed.Run(queries)
				}
				for i := range queries {
					if !equalInts(plain.Result(i), observed.Result(i)) {
						t.Fatalf("d=%d workers=%d closed=%v query %d: observed %v, plain %v",
							d, workers, closed, i, observed.Result(i), plain.Result(i))
					}
				}
			}
			a, b := plain.Stats(), observed.Stats()
			if a.Queries != b.Queries || a.NodesVisited != b.NodesVisited || a.LeafScanned != b.LeafScanned {
				t.Fatalf("d=%d workers=%d: observed stats %+v diverge from plain %+v", d, workers, b, a)
			}
		}
	}
}

// TestObservedBatchTelemetry: the journal sees exact query counts, a
// plausible sampled latency distribution, and tail events whose leaf
// and depth are the query's real root-to-leaf route.
func TestObservedBatchTelemetry(t *testing.T) {
	f, _, pts := buildUniform(t, 1500, 2, 3, 7, nil)
	queries := queryMix(pts, 2, 512, 13)
	j := obs.NewJournal(obs.JournalConfig{SampleEvery: 4}, 0)
	b := NewBatch(f, 4)
	b.Observe(j)
	for i := 0; i < 4; i++ {
		b.Run(queries)
	}
	snap := j.ServeSnapshot()
	if snap.Queries != int64(4*len(queries)) {
		t.Fatalf("queries = %d, want %d", snap.Queries, 4*len(queries))
	}
	if snap.Sampled != snap.Queries/4 {
		t.Fatalf("sampled = %d, want %d (1 in 4)", snap.Sampled, snap.Queries/4)
	}
	if snap.Latency.Count != snap.Sampled || snap.Latency.Min < 0 {
		t.Fatalf("latency hist = %+v", snap.Latency)
	}
	if snap.Descent.Count != snap.Sampled || snap.Scan.Count != snap.Sampled {
		t.Fatalf("phase hists not populated: descent=%+v scan=%+v", snap.Descent, snap.Scan)
	}
	// Sampled traversal-shape histograms must agree with the engine's
	// exact per-query counters in range.
	if snap.Nodes.Min < 1 || int(snap.Nodes.Max) > f.NumNodes() {
		t.Fatalf("nodes hist out of range: %+v", snap.Nodes)
	}
	if len(snap.Tail) == 0 {
		t.Fatal("no tail events retained")
	}
	for _, ev := range snap.Tail {
		if ev.LatencyNs != ev.DescentNs+ev.ScanNs || !ev.Sampled {
			t.Fatalf("tail latency %d != descent %d + scan %d", ev.LatencyNs, ev.DescentNs, ev.ScanNs)
		}
		// The leaf names the unique root-to-leaf descent.
		leaf, path := f.DescendPath(queries[ev.Query], nil)
		if ev.Leaf != leaf || int(ev.Nodes) != len(path) || path[0] != 0 {
			t.Fatalf("tail event leaf %d depth %d, descent reaches %d in %d nodes",
				ev.Leaf, ev.Nodes, leaf, len(path))
		}
	}
	// Detach: telemetry stops, serving continues.
	b.Observe(nil)
	b.Run(queries)
	after := j.ServeSnapshot()
	if after.Queries != snap.Queries {
		t.Fatalf("detached engine still recorded: %d -> %d", snap.Queries, after.Queries)
	}
}

// TestObservedBatchZeroAllocSteadyState extends the tier-1 zero-alloc
// assertion to the instrumented path: with a journal attached and
// sampling live, a warm Run must not allocate.
func TestObservedBatchZeroAllocSteadyState(t *testing.T) {
	f, _, pts := buildUniform(t, 2000, 2, 3, 5, nil)
	queries := queryMix(pts, 2, 256, 9)
	for _, workers := range []int{1, 4} {
		b := NewBatch(f, workers)
		b.Observe(obs.NewJournal(obs.JournalConfig{SampleEvery: 4}, workers))
		for warm := 0; warm < 3; warm++ {
			b.Run(queries)
		}
		if avg := testing.AllocsPerRun(50, func() { b.Run(queries) }); avg != 0 {
			t.Fatalf("workers=%d: %v allocs per instrumented steady-state Run, want 0", workers, avg)
		}
	}
}

// TestDescendPathMatchesCovering: DescendPath+ScanLeaf is the exact
// decomposition of Covering, for every dimension's kernel — the d=4..8
// inline descents against Covering's indirect-call loop, and d=1 for
// the generic fallback both sides share.
func TestDescendPathMatchesCovering(t *testing.T) {
	// Point counts grow with d just enough to clear the default leaf
	// size (which doubles per dimension above 3), so every dimension's
	// tree has real internal nodes for the descent loops to walk, while
	// crossing-ball duplication stays small.
	sizes := map[int]int{7: 1200, 8: 2500}
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		n := 900
		if s, ok := sizes[d]; ok {
			n = s
		}
		f, _, pts := buildUniform(t, n, d, 2, 3, nil)
		var path []int32
		var got, want []int
		for _, q := range queryMix(pts, d, 200, 5) {
			var leaf int32
			leaf, path = f.DescendPath(q, path[:0])
			var scanned int
			got, scanned = f.ScanLeaf(leaf, q, false, got[:0])
			var wantNodes, wantScanned int
			want, wantNodes, wantScanned = f.Covering(q, want[:0])
			if !equalInts(got, want) {
				t.Fatalf("d=%d: split traversal %v != covering %v", d, got, want)
			}
			if len(path) != wantNodes || scanned != wantScanned {
				t.Fatalf("d=%d: split accounting (%d,%d) != covering (%d,%d)",
					d, len(path), scanned, wantNodes, wantScanned)
			}
		}
	}
}
