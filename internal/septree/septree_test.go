package septree

import (
	"math"
	"slices"
	"testing"

	"sepdc/internal/brute"
	"sepdc/internal/chaos"
	"sepdc/internal/geom"
	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/separator"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

func buildUniform(t testing.TB, n, d, k int, seed uint64, opts *Options) (*Frozen, *nbrsys.System, []vec.Vec) {
	t.Helper()
	g := xrand.New(seed)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, n, d, g))
	sys := nbrsys.KNeighborhood(pts, k)
	f, err := Build(sys, g.Split(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return f, sys, pts
}

// bruteCovering is the reference every query engine answers to: the ids,
// ascending, of the balls of sys whose open (vec.Dist2 < r*r) or closed
// (vec.Dist2 <= r*r+geom.Eps) ball contains q.
func bruteCovering(sys *nbrsys.System, q []float64, closed bool) []int {
	var out []int
	for i, c := range sys.Centers {
		r := sys.Radii[i]
		d2 := vec.Dist2(q, c)
		if closed && d2 <= r*r+geom.Eps || !closed && d2 < r*r {
			out = append(out, i)
		}
	}
	return out
}

func TestQueryMatchesBrute(t *testing.T) {
	f, sys, pts := buildUniform(t, 2000, 2, 2, 1, nil)
	g := xrand.New(99)
	var got []int
	for trial := 0; trial < 200; trial++ {
		var q vec.Vec
		if trial%2 == 0 {
			q = pts[g.IntN(len(pts))]
		} else {
			q = vec.Vec(g.InCube(2))
		}
		got, _, _ = f.Covering(q, got[:0])
		if want := bruteCovering(sys, q, false); !equalInts(got, want) {
			t.Fatalf("trial %d: Covering found %v, brute %v", trial, got, want)
		}
	}
}

func TestQueryAcrossDistributionsAndDims(t *testing.T) {
	g := xrand.New(2)
	for _, dist := range []pointgen.Dist{pointgen.Gaussian, pointgen.Clustered, pointgen.Annulus} {
		for _, d := range []int{2, 3} {
			pts := pointgen.Dedup(pointgen.MustGenerate(dist, 800, d, g.Split()))
			sys := nbrsys.KNeighborhood(pts, 3)
			f, err := Build(sys, g.Split(), nil)
			if err != nil {
				t.Fatalf("%s d=%d: %v", dist, d, err)
			}
			var got []int
			for trial := 0; trial < 40; trial++ {
				q := pts[g.IntN(len(pts))]
				got, _, _ = f.Covering(q, got[:0])
				want := brute.CountCoveringBalls(sys.Centers, sys.Radii, q)
				if len(got) != want {
					t.Fatalf("%s d=%d trial %d: %d vs brute %d", dist, d, trial, len(got), want)
				}
			}
		}
	}
}

func TestCoveringClosedIncludesBoundary(t *testing.T) {
	sys := &nbrsys.System{
		Centers: []vec.Vec{vec.Of(0, 0), vec.Of(10, 10)},
		Radii:   []float64{1, 1},
	}
	f, err := Build(sys, xrand.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	onBoundary := vec.Of(1, 0)
	open, _, _ := f.Covering(onBoundary, nil)
	closed, _, _ := f.CoveringClosed(onBoundary, nil)
	if len(open) != 0 {
		t.Errorf("open query returned %v for boundary point", open)
	}
	if len(closed) != 1 || closed[0] != 0 {
		t.Errorf("closed query = %v", closed)
	}
	if !equalInts(open, bruteCovering(sys, onBoundary, false)) || !equalInts(closed, bruteCovering(sys, onBoundary, true)) {
		t.Errorf("boundary answers %v / %v disagree with the brute-force predicates", open, closed)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	// Lemma 3.1: height O(log n). Compare two sizes: quadrupling n should
	// add roughly 2/log2(1/δ') levels, not multiply the height.
	tree1, _, _ := buildUniform(t, 1000, 2, 1, 3, nil)
	tree2, _, _ := buildUniform(t, 4000, 2, 1, 4, nil)
	h1, h2 := tree1.Stats.Height, tree2.Stats.Height
	if h2 > h1+14 {
		t.Errorf("height grew from %d to %d on 4x points; not logarithmic", h1, h2)
	}
	logN := math.Log2(4000)
	if float64(h2) > 5*logN {
		t.Errorf("height %d far above O(log n) = %v", h2, logN)
	}
}

func TestSpaceLinear(t *testing.T) {
	// Lemma 3.1: total stored balls O(n) despite crossing-ball duplication.
	tree, _, pts := buildUniform(t, 4000, 2, 1, 5, nil)
	if tree.Stats.TotalStored > 4*len(pts) {
		t.Errorf("stored %d balls for n=%d; space not linear", tree.Stats.TotalStored, len(pts))
	}
	if tree.Stats.TotalStored < len(pts) {
		t.Errorf("stored %d balls < n=%d; balls lost", tree.Stats.TotalStored, len(pts))
	}
}

func TestEveryBallReachable(t *testing.T) {
	// Each ball must be stored in at least one leaf, and the leaf reached
	// by querying its center must contain it (it covers its own center
	// only if radius > 0; we check storage membership instead).
	f, sys, _ := buildUniform(t, 1500, 3, 2, 6, nil)
	seen := make(map[int32]bool)
	for i := range f.kind {
		if f.kind[i] == kindLeaf {
			for _, j := range f.LeafBalls(int32(i)) {
				seen[j] = true
			}
		}
	}
	for i := int32(0); i < int32(sys.Len()); i++ {
		if !seen[i] {
			t.Fatalf("ball %d not stored in any leaf", i)
		}
	}
}

func TestCriticalTrialsLogarithmic(t *testing.T) {
	// Theorem 3.1: the separator-call sequence along any root-leaf path is
	// O(log n) with high probability.
	tree, _, pts := buildUniform(t, 8000, 2, 1, 7, nil)
	logN := math.Log2(float64(len(pts)))
	if float64(tree.Stats.CriticalTrials) > 12*logN {
		t.Errorf("critical trials %d >> O(log n) = %v", tree.Stats.CriticalTrials, logN)
	}
	// Every internal node on the deepest path consumes at least one trial;
	// the leaf consumes none.
	if tree.Stats.CriticalTrials < tree.Stats.Height-1-tree.Stats.ForcedLeaves {
		t.Errorf("critical trials %d below height %d minus leaf; accounting broken",
			tree.Stats.CriticalTrials, tree.Stats.Height)
	}
}

func TestParallelBuildMatchesCostModel(t *testing.T) {
	// The same seed must give identical simulated cost on sequential and
	// parallel machines (accounting is execution-independent), and the
	// parallel build must produce a correct tree.
	g1 := xrand.New(8)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 2000, 2, g1))
	sys := nbrsys.KNeighborhood(pts, 1)

	seq, err := Build(sys, xrand.New(42), &Options{Machine: vm.Sequential()})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(sys, xrand.New(42), &Options{Machine: vm.NewMachine(4)})
	if err != nil {
		t.Fatal(err)
	}
	// NOTE: RNG splitting order differs between sequential and parallel
	// execution only if the build consumed the RNG concurrently; the build
	// splits the stream before forking, so trees must be identical.
	if seq.Stats.Height != par.Stats.Height || seq.Stats.Leaves != par.Stats.Leaves {
		t.Errorf("parallel build shape differs: %+v vs %+v", seq.Stats, par.Stats)
	}
	if seq.Stats.Cost != par.Stats.Cost {
		t.Errorf("cost model depends on execution: %v vs %v", seq.Stats.Cost, par.Stats.Cost)
	}
	// Verify correctness of the parallel tree.
	f := par
	gq := xrand.New(9)
	var got []int
	for trial := 0; trial < 50; trial++ {
		q := pts[gq.IntN(len(pts))]
		got, _, _ = f.Covering(q, got[:0])
		want := brute.CountCoveringBalls(sys.Centers, sys.Radii, q)
		if len(got) != want {
			t.Fatalf("parallel tree query wrong: %d vs %d", len(got), want)
		}
	}
}

func TestQueryCostLogarithmic(t *testing.T) {
	f, _, pts := buildUniform(t, 8000, 2, 1, 10, nil)
	g := xrand.New(11)
	maxVisited := 0
	var balls []int
	for trial := 0; trial < 100; trial++ {
		var visited int
		balls, visited, _ = f.Covering(pts[g.IntN(len(pts))], balls[:0])
		if visited > maxVisited {
			maxVisited = visited
		}
	}
	if float64(maxVisited) > 6*math.Log2(float64(len(pts))) {
		t.Errorf("max nodes visited %d; query not logarithmic", maxVisited)
	}
}

func TestValidateOnBuiltTrees(t *testing.T) {
	g := xrand.New(55)
	for _, dist := range []pointgen.Dist{pointgen.UniformCube, pointgen.Clustered, pointgen.Annulus} {
		pts := pointgen.Dedup(pointgen.MustGenerate(dist, 1200, 2, g.Split()))
		sys := nbrsys.KNeighborhood(pts, 2)
		f, err := Build(sys, g.Split(), nil)
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		if err := f.Validate(sys); err != nil {
			t.Errorf("%s: %v", dist, err)
		}
	}
}

// TestValidateUnderChaos validates builds whose separator search runs
// under each fault-injection profile (the KNN_CHAOS specs of the chaos
// matrix): the punt and fallback paths must still emit a well-formed
// structure.
func TestValidateUnderChaos(t *testing.T) {
	for _, spec := range []string{
		"sep-fail=2", "sep-fail=all", "punt=all", "punt=0,1", "march-abort=all",
		"march-level=1", "stall=200us", "sep-fail=1;punt=2,3;march-level=2",
		"sep-fail=all;punt=all;march-abort=all;march-level=1;stall=100us",
	} {
		inj, err := chaos.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []int{2, 3} {
			g := xrand.New(uint64(60 + d))
			sys := nbrsys.KNeighborhood(pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 600, d, g)), 3)
			f, err := Build(sys, g.Split(), &Options{Sep: &separator.Options{Chaos: inj}})
			if err != nil {
				t.Fatalf("%s d=%d: %v", spec, d, err)
			}
			if err := f.Validate(sys); err != nil {
				t.Errorf("%s d=%d: %v", spec, d, err)
			}
		}
	}
}

// TestValidateDetectsCorruption corrupts each flat array of a valid
// structure in turn and requires Validate to reject every corruption.
func TestValidateDetectsCorruption(t *testing.T) {
	f, sys, _ := buildUniform(t, 500, 2, 1, 56, nil)
	if err := f.Validate(sys); err != nil {
		t.Fatal(err)
	}
	sphere := int32(-1)
	for i, k := range f.kind {
		if k == kindSphere {
			sphere = int32(i)
			break
		}
	}
	if sphere < 0 || f.NumLeaves() < 2 {
		t.Fatal("fixture has no sphere separator")
	}
	d := f.dim
	cases := []struct {
		name string
		bad  func(g *Frozen)
	}{
		{"kind: root made a leaf", func(g *Frozen) { g.kind[0] = kindLeaf }},
		{"kind: unknown", func(g *Frozen) { g.kind[0] = 7 }},
		{"child: out of range", func(g *Frozen) { g.child[0] = int32(len(g.child)) }},
		{"child: points back to the root", func(g *Frozen) { g.child[0] = 0 }},
		{"child: shared leaf slot", func(g *Frozen) {
			var leaves []int
			for i, k := range g.kind {
				if k == kindLeaf {
					leaves = append(leaves, i)
				}
			}
			g.child[leaves[1]] = g.child[leaves[0]]
		}},
		{"sep: r² band", func(g *Frozen) { g.sep[int(sphere)*g.nstride+d+2] *= 2 }},
		{"sep: radius with a consistent band", func(g *Frozen) {
			rec := g.sep[int(sphere)*g.nstride:]
			rec[d] = 0
			rec[d+1], rec[d+2] = sqrtFreeBand(0)
		}},
		{"sep: center", func(g *Frozen) { g.sep[int(sphere)*g.nstride] += 1e6 }},
		{"leafOff: shifted", func(g *Frozen) { g.leafOff[1]++ }},
		{"leafBalls: dropped ball", func(g *Frozen) { g.leafBalls[1] = g.leafBalls[0] }},
		{"leafBalls: foreign ball", func(g *Frozen) { g.leafBalls[len(g.leafBalls)-1] = int32(sys.Len()) }},
		{"leafRecs: center", func(g *Frozen) { g.leafRecs[0] = math.Nextafter(g.leafRecs[0], math.Inf(1)) }},
		{"leafRecs: r²", func(g *Frozen) { g.leafRecs[d] = math.Nextafter(g.leafRecs[d], math.Inf(1)) }},
		{"length", func(g *Frozen) { g.punted = g.punted[1:] }},
	}
	for _, c := range cases {
		g := *f
		g.kind, g.child, g.sep, g.punted = slices.Clone(f.kind), slices.Clone(f.child), slices.Clone(f.sep), slices.Clone(f.punted)
		g.leafOff, g.leafBalls, g.leafRecs = slices.Clone(f.leafOff), slices.Clone(f.leafBalls), slices.Clone(f.leafRecs)
		c.bad(&g)
		if err := g.Validate(sys); err == nil {
			t.Errorf("%s: corruption not detected", c.name)
		}
	}
	if err := f.Validate(sys); err != nil {
		t.Fatalf("corruptions leaked into the original: %v", err)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(&nbrsys.System{}, xrand.New(1), nil); err == nil {
		t.Error("empty system accepted")
	}
	bad := &nbrsys.System{Centers: []vec.Vec{vec.Of(0)}, Radii: []float64{1, 2}}
	if _, err := Build(bad, xrand.New(1), nil); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestBuildTinySystemIsLeaf(t *testing.T) {
	sys := &nbrsys.System{
		Centers: []vec.Vec{vec.Of(0, 0), vec.Of(1, 1)},
		Radii:   []float64{0.5, 0.5},
	}
	f, err := Build(sys, xrand.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumNodes() != 1 {
		t.Error("tiny system should be a single leaf")
	}
	got, _, _ := f.Covering(vec.Of(0, 0), nil)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("tiny query = %v", got)
	}
}

func TestBuildIdenticalCentersTerminates(t *testing.T) {
	n := 200
	centers := make([]vec.Vec, n)
	radii := make([]float64, n)
	for i := range centers {
		centers[i] = vec.Of(1, 1)
		radii[i] = 1
	}
	sys := &nbrsys.System{Centers: centers, Radii: radii}
	tree, err := Build(sys, xrand.New(1), &Options{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := tree.Covering(vec.Of(1, 1), nil)
	if len(got) != n {
		t.Errorf("identical-center query = %d, want %d", len(got), n)
	}
	if tree.Stats.ForcedLeaves == 0 {
		t.Log("note: identical centers resolved without forced leaves")
	}
}

func TestLeafSizeOption(t *testing.T) {
	f, _, _ := buildUniform(t, 500, 2, 1, 12, &Options{LeafSize: 64})
	oversized := 0
	for i, k := range f.kind {
		if k == kindLeaf && len(f.LeafBalls(int32(i))) > 64 {
			oversized++
		}
	}
	if oversized > f.Stats.ForcedLeaves { // only forced leaves may exceed
		t.Errorf("%d leaves above the leaf size, %d forced", oversized, f.Stats.ForcedLeaves)
	}
}
