package septree

import (
	"testing"

	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// TestBlockedOrderPermutation checks blockedOrder places every node of
// the scratch tree exactly once, numbers each with its position, puts
// the root first and keeps every sibling pair adjacent — the
// right = left+1 invariant the descent relies on.
func TestBlockedOrderPermutation(t *testing.T) {
	g := xrand.New(19)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 1500, 3, g))
	sys := nbrsys.KNeighborhood(pts, 3)
	idx := make([]int, sys.Len())
	for i := range idx {
		idx[i] = i
	}
	root := build(sys, idx, g.Split(), nil, vm.Sequential().NewCtx())
	var all []*node
	var walk func(nd *node)
	walk = func(nd *node) {
		all = append(all, nd)
		if nd.sep != nil {
			walk(nd.left)
			walk(nd.right)
		}
	}
	walk(root)
	if len(all) != 2*root.st.Leaves-1 {
		t.Fatalf("%d nodes over %d leaves", len(all), root.st.Leaves)
	}
	order := blockedOrder(root, len(all))
	if len(order) != len(all) {
		t.Fatalf("blocked order has %d nodes, tree %d", len(order), len(all))
	}
	seen := make(map[*node]bool, len(order))
	for i, nd := range order {
		if seen[nd] {
			t.Fatal("blocked order visits a node twice")
		}
		seen[nd] = true
		if nd.id != int32(i) {
			t.Fatalf("node at position %d numbered %d", i, nd.id)
		}
	}
	for _, nd := range all {
		if !seen[nd] {
			t.Fatal("blocked order drops a node")
		}
		if nd.sep != nil && nd.right.id != nd.left.id+1 {
			t.Fatalf("siblings at %d and %d are not adjacent", nd.left.id, nd.right.id)
		}
	}
	if order[0] != root {
		t.Fatal("root is not node 0 in blocked order")
	}
}

// TestGenericTierFreeze pins knnbench's reference configuration: a
// structure re-frozen under vec.TierGeneric captures the flat kernels,
// no batch kernels, and skips the inline descents, yet answers with the
// same ids and counters as the build's own kernels, at the specialized
// dimensions and above the dispatch table.
func TestGenericTierFreeze(t *testing.T) {
	g := xrand.New(47)
	for _, d := range []int{4, 6, 9} {
		pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 800, d, g.Split()))
		sys := nbrsys.KNeighborhood(pts, 3)
		opt, err := Build(sys, g.Split(), nil)
		if err != nil {
			t.Fatal(err)
		}
		prev := vec.SetActiveTier(vec.TierGeneric)
		ref, err := Freeze(opt)
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
		f, err := Build(sys, g.Split(), nil)
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
