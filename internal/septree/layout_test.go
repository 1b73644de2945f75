package septree

import (
	"testing"

	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

// TestLayoutsBitIdentical freezes the same tree under both node
// orderings and checks every query observable — ids, order, nodes
// visited, candidates scanned — is identical. The blocked layout is a
// pure permutation of storage; any divergence here means the descent is
// following a child pointer to the wrong record.
func TestLayoutsBitIdentical(t *testing.T) {
	g := xrand.New(41)
	for _, d := range []int{1, 2, 3, 4, 5} {
		pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.Clustered, 1100, d, g.Split()))
		sys := nbrsys.KNeighborhood(pts, 3)
		tree, err := Build(sys, g.Split(), nil)
		if err != nil {
			t.Fatal(err)
		}
		blocked, err := FreezeLayout(tree, LayoutBlocked)
		if err != nil {
			t.Fatalf("d=%d blocked: %v", d, err)
		}
		bfs, err := FreezeLayout(tree, LayoutBFS)
		if err != nil {
			t.Fatalf("d=%d bfs: %v", d, err)
		}
		if blocked.NumNodes() != bfs.NumNodes() || blocked.NumLeaves() != bfs.NumLeaves() ||
			blocked.StoredBalls() != bfs.StoredBalls() {
			t.Fatalf("d=%d: layouts disagree on shape: nodes %d/%d leaves %d/%d stored %d/%d",
				d, blocked.NumNodes(), bfs.NumNodes(), blocked.NumLeaves(), bfs.NumLeaves(),
				blocked.StoredBalls(), bfs.StoredBalls())
		}
		var bOut, fOut []int
		for qi, q := range queryMix(pts, d, 300, uint64(50+d)) {
			for _, closed := range []bool{false, true} {
				var bv, bs, fv, fs int
				if closed {
					bOut, bv, bs = blocked.CoveringClosed(q, bOut[:0])
					fOut, fv, fs = bfs.CoveringClosed(q, fOut[:0])
				} else {
					bOut, bv, bs = blocked.Covering(q, bOut[:0])
					fOut, fv, fs = bfs.Covering(q, fOut[:0])
				}
				if !equalInts(bOut, fOut) {
					t.Fatalf("d=%d q=%d closed=%v: blocked %v, bfs %v", d, qi, closed, bOut, fOut)
				}
				if bv != fv || bs != fs {
					t.Fatalf("d=%d q=%d closed=%v: counters (%d,%d) vs (%d,%d)",
						d, qi, closed, bv, bs, fv, fs)
				}
			}
		}
	}
}

// TestLayoutsBitIdenticalForcedLeaf covers the degenerate single-leaf
// tree (LeafSize above n makes the root absorb everything) under both
// layouts — the blocked traversal's singleton-root unit edge case.
func TestLayoutsBitIdenticalForcedLeaf(t *testing.T) {
	g := xrand.New(43)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 200, 2, g.Split()))
	sys := nbrsys.KNeighborhood(pts, 2)
	tree, err := Build(sys, g.Split(), &Options{LeafSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := FreezeLayout(tree, LayoutBlocked)
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := FreezeLayout(tree, LayoutBFS)
	if err != nil {
		t.Fatal(err)
	}
	var bOut, fOut []int
	for _, q := range queryMix(pts, 2, 100, 77) {
		bOut, _, _ = blocked.Covering(q, bOut[:0])
		fOut, _, _ = bfs.Covering(q, fOut[:0])
		if !equalInts(bOut, fOut) {
			t.Fatalf("forced-leaf: blocked %v, bfs %v", bOut, fOut)
		}
	}
}

// TestBlockedOrderPermutation checks blockedOrder visits every node of
// the tree exactly once — it is a permutation of the BFS order, nothing
// dropped, nothing doubled.
func TestBlockedOrderPermutation(t *testing.T) {
	tree, _ := buildUniform(t, 1500, 3, 3, 19, nil)
	bfs := bfsOrder(tree.Root)
	blocked := blockedOrder(tree.Root)
	if len(bfs) != len(blocked) {
		t.Fatalf("blocked order has %d nodes, bfs %d", len(blocked), len(bfs))
	}
	seen := make(map[*Node]bool, len(blocked))
	for _, nd := range blocked {
		if seen[nd] {
			t.Fatal("blocked order visits a node twice")
		}
		seen[nd] = true
	}
	for _, nd := range bfs {
		if !seen[nd] {
			t.Fatal("blocked order drops a node")
		}
	}
	if blocked[0] != tree.Root {
		t.Fatal("root is not node 0 in blocked order")
	}
}

// TestGenericTierFreeze pins knnbench's reference configuration: a tree
// frozen under vec.TierGeneric captures the flat kernels, no batch
// kernels, and skips the inline descents, yet answers with the same ids
// and counters as the default freeze, at the specialized dimensions and
// above the dispatch table.
func TestGenericTierFreeze(t *testing.T) {
	g := xrand.New(47)
	for _, d := range []int{4, 6, 9} {
		pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 800, d, g.Split()))
		sys := nbrsys.KNeighborhood(pts, 3)
		tree, err := Build(sys, g.Split(), nil)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Freeze(tree)
		if err != nil {
			t.Fatal(err)
		}
		prev := vec.SetActiveTier(vec.TierGeneric)
		ref, err := Freeze(tree)
		vec.SetActiveTier(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.generic || ref.batch4 != nil || ref.batch8 != nil || ref.strided8 != nil {
			t.Fatalf("d=%d: generic-tier freeze kept specialized kernels", d)
		}
		var a, b []int
		for qi, q := range queryMix(pts, d, 200, uint64(90+d)) {
			var av, as, bv, bs int
			a, av, as = opt.CoveringClosed(q, a[:0])
			b, bv, bs = ref.CoveringClosed(q, b[:0])
			if !equalInts(a, b) || av != bv || as != bs {
				t.Fatalf("d=%d q=%d: kernels %v (%d,%d), generic %v (%d,%d)",
					d, qi, a, av, as, b, bv, bs)
			}
		}
	}
}

// TestScanLeafBlockMatchesSequential routes bundles of queries that
// descend to the same leaf through the blocked scan and checks each
// lane against an individual ScanLeaf — the golden contract the Batch
// engine's query blocking relies on. Bundle widths cover the partial
// (<4), exact-multiple, and remainder lane shapes of the 4-wide kernel.
func TestScanLeafBlockMatchesSequential(t *testing.T) {
	g := xrand.New(53)
	for _, d := range []int{2, 4, 7} {
		pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.Clustered, 1000, d, g.Split()))
		sys := nbrsys.KNeighborhood(pts, 3)
		tree, err := Build(sys, g.Split(), nil)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Freeze(tree)
		if err != nil {
			t.Fatal(err)
		}
		queries := queryMix(pts, d, 400, uint64(60+d))
		// Bucket queries by destination leaf, then scan each bucket in
		// bundles of every width from 1 to 8.
		byLeaf := map[int32][][]float64{}
		for _, q := range queries {
			leaf, _ := f.descend(q)
			byLeaf[leaf] = append(byLeaf[leaf], q)
		}
		outs := make([][]int, 8)
		for leaf, qs := range byLeaf {
			for _, closed := range []bool{false, true} {
				for w := 1; w <= 8 && w <= len(qs); w++ {
					block := qs[:w]
					for i := range outs[:w] {
						outs[i] = outs[i][:0]
					}
					scanned := f.scanLeafBlock(leaf, block, closed, outs[:w])
					for i, q := range block {
						want, wantScanned := f.ScanLeaf(leaf, q, closed, nil)
						if !equalInts(outs[i], want) {
							t.Fatalf("d=%d leaf=%d w=%d lane=%d closed=%v: block %v, seq %v",
								d, leaf, w, i, closed, outs[i], want)
						}
						if scanned != wantScanned {
							t.Fatalf("d=%d leaf=%d: block scanned %d, seq %d", d, leaf, scanned, wantScanned)
						}
					}
				}
			}
		}
	}
}
