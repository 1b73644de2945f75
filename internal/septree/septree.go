// Package septree implements the separator-based search structure for the
// neighborhood query problem (Section 3 of the paper): a binary tree whose
// internal nodes store sphere separators and whose leaves store ball
// subsets, supporting "which balls cover point p" queries in
// O(k + log n) time with O(n) space.
//
// Construction follows Parallel Neighborhood Querying (Section 3.3):
//
//  1. If m <= m0, emit a leaf holding all balls.
//  2. Otherwise iterate the Unit Time Sphere Separator Algorithm until a
//     good separator S is found.
//  3. B_0 = B_I(S) ∪ B_O(S), B_1 = B_E(S) ∪ B_O(S) — crossing balls are
//     duplicated into both children.
//  4. Recurse on B_0 and B_1 in parallel.
//
// The recursion is executed fork-join on a vm.Machine, which both runs the
// two subtrees on goroutines and records the simulated vector-model cost;
// the number of separator trials on the deepest root–leaf path is the
// quantity Theorem 3.1 bounds by O(log n).
package septree

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"sepdc/internal/geom"
	"sepdc/internal/nbrsys"
	"sepdc/internal/obs"
	"sepdc/internal/separator"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// Options configures construction.
type Options struct {
	// LeafSize is the paper's m0: subsets of at most this size become
	// leaves. Zero selects 32, comfortably satisfying m0^μ ≤ (1−δ)/2·m0
	// for the default δ and the empirical μ.
	LeafSize int
	// Sep configures the separator search at each node.
	Sep *separator.Options
	// Machine runs the two recursive builds in parallel and accrues the
	// simulated cost. Nil selects a sequential machine.
	Machine *vm.Machine
	// Done aborts the build when closed (typically a context's Done
	// channel): the recursion stops descending and Build returns
	// context.Canceled. Nil disables the probe.
	Done <-chan struct{}
}

func (o *Options) cancelled() bool {
	if o == nil || o.Done == nil {
		return false
	}
	select {
	case <-o.Done:
		return true
	default:
		return false
	}
}

// leafSize returns the paper's m0 for ambient dimension d. Lemma 3.1
// requires m0 large enough (depending on d, δ, μ) that the crossing set
// of a leaf-sized subproblem is a small fraction of it; the intersection
// number's m^{(d−1)/d} scaling means higher dimensions need larger leaves.
func (o *Options) leafSize(d int) int {
	if o != nil && o.LeafSize > 0 {
		return o.LeafSize
	}
	if d <= 3 {
		return 32
	}
	return 32 << uint(d-3) // 64 at d=4, 128 at d=5, …
}

// retriesOnNoProgress is how many times a node reruns the separator
// search when duplication of crossing balls prevents both children from
// shrinking. After the budget the node becomes an oversized leaf
// (recorded in BuildStats.ForcedLeaves).
const retriesOnNoProgress = 3

func (o *Options) machine() *vm.Machine {
	if o == nil || o.Machine == nil {
		return vm.Sequential()
	}
	return o.Machine
}

func (o *Options) sep() *separator.Options {
	if o == nil {
		return nil
	}
	return o.Sep
}

// BuildStats describes the constructed tree.
type BuildStats struct {
	Height          int     // nodes on the deepest root–leaf path
	Leaves          int     // number of leaves
	TotalStored     int     // Σ over leaves of stored balls; the space bound is O(n)
	SeparatorTrials int     // total separator candidates across all nodes
	CriticalTrials  int     // max Σ of trials along any root–leaf path (Thm 3.1's quantity)
	Punts           int     // nodes whose separator search fell back to a hyperplane
	ForcedLeaves    int     // oversized leaves created after repeated no-progress
	Cost            vm.Cost // simulated vector-model cost of the build
}

// node is the build's scratch form of one tree node. It never leaves
// Build: once the recursion returns, emit lays the tree out into the
// Frozen's flat arrays.
type node struct {
	sep         geom.Separator // nil at a leaf
	left, right *node
	balls       []int      // leaf payload: indices into the neighborhood system
	punted      bool       // separator search fell back to a median hyperplane
	id          int32      // position in the emitted node order
	st          BuildStats // statistics of the subtree rooted here (Cost unset)
}

// Build constructs the search structure and returns it in its flat,
// query-ready form. A build whose Options.Done channel closes
// mid-recursion is abandoned and returns context.Canceled.
func Build(sys *nbrsys.System, g *xrand.RNG, opts *Options) (*Frozen, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if sys.Len() == 0 {
		return nil, errors.New("septree: empty neighborhood system")
	}
	idx := make([]int, sys.Len())
	for i := range idx {
		idx[i] = i
	}
	ctx := opts.machine().NewCtx()
	root := build(sys, idx, g, opts, ctx)
	if opts.cancelled() {
		// Cancellation collapses subtrees to nil nodes; the partial tree
		// is unusable, so report the abort rather than emit it.
		return nil, context.Canceled
	}
	f := emit(sys, root)
	f.Stats = root.st
	f.Stats.Cost = ctx.Cost()
	if obs.On() {
		obs.Add(obs.GSeptreeBuilds, 1)
		obs.Add(obs.GSeptreeForced, int64(f.Stats.ForcedLeaves))
	}
	return f, nil
}

// BuildContext is Build under a context: the context's Done channel is
// installed as Options.Done and a cancelled build returns ctx.Err().
func BuildContext(cx context.Context, sys *nbrsys.System, g *xrand.RNG, opts *Options) (*Frozen, error) {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	o.Done = cx.Done()
	f, err := Build(sys, g, &o)
	if err != nil {
		if cerr := cx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	return f, nil
}

// build is the fork-join recursion. It returns nil once the build is
// cancelled; otherwise every returned node carries its subtree's
// statistics, summed on the way back up.
func build(sys *nbrsys.System, idx []int, g *xrand.RNG, opts *Options, ctx *vm.Ctx) *node {
	if opts.cancelled() {
		return nil
	}
	m := len(idx)
	if m <= opts.leafSize(len(sys.Centers[idx[0]])) {
		ctx.Prim(m) // emit leaf: one vector write
		return leaf(idx, 0, false, false)
	}
	centers := make([]vec.Vec, m)
	for i, j := range idx {
		centers[i] = sys.Centers[j]
	}
	trials, punted := 0, false
	for attempt := 0; ; attempt++ {
		res, err := separator.FindGood(centers, g.Split(), opts.sep())
		if err != nil {
			// Degenerate subset (e.g. all centers identical): leaf out.
			ctx.Prim(m)
			return leaf(idx, trials, false, true)
		}
		trials += res.Trials
		punted = punted || res.Punted
		// Each candidate trial is O(1) vector steps over the node's points.
		ctx.PrimK(res.Trials, m)

		left, right := split(sys, res.Sep, idx)
		ctx.PrimK(2, m) // classify + pack

		// Progress guard: crossing-ball duplication must not be allowed to
		// shrink children by a hair per level, or the recursion blows up
		// exponentially (duplication outpaces the split). Lemma 3.1's
		// recurrence needs |child| ≤ δ₁·m + m^μ; we enforce the practical
		// version "both children at least 5% smaller" and retry (then leaf
		// out) otherwise — the paper's requirement that m0 be a
		// sufficiently large constant for the dimension plays the same
		// role in the analysis.
		limit := m - 1
		if m >= 40 {
			limit = m - m/20
		}
		if len(left) <= limit && len(right) <= limit && len(left) > 0 && len(right) > 0 {
			nd := &node{sep: res.Sep, punted: punted}
			// Split the RNG before forking so the stream handed to each
			// branch does not depend on execution interleaving.
			gl, gr := g.Split(), g.Split()
			ctx.Fork(
				func(c *vm.Ctx) { nd.left = build(sys, left, gl, opts, c) },
				func(c *vm.Ctx) { nd.right = build(sys, right, gr, opts, c) },
			)
			if nd.left == nil || nd.right == nil {
				return nil
			}
			l, r := &nd.left.st, &nd.right.st
			nd.st = BuildStats{
				Height:          1 + max(l.Height, r.Height),
				Leaves:          l.Leaves + r.Leaves,
				TotalStored:     l.TotalStored + r.TotalStored,
				SeparatorTrials: trials + l.SeparatorTrials + r.SeparatorTrials,
				CriticalTrials:  trials + max(l.CriticalTrials, r.CriticalTrials),
				Punts:           l.Punts + r.Punts,
				ForcedLeaves:    l.ForcedLeaves + r.ForcedLeaves,
			}
			if punted {
				nd.st.Punts++
			}
			return nd
		}
		if attempt >= retriesOnNoProgress {
			// Crossing-ball duplication defeated the split repeatedly
			// (legitimately possible when ball radii are huge relative to
			// the subset's extent). An oversized leaf keeps queries correct
			// at O(m) leaf-scan cost.
			ctx.Prim(m)
			return leaf(idx, trials, punted, true)
		}
	}
}

// leaf returns a leaf over idx with its one-leaf statistics.
func leaf(idx []int, trials int, punted, forced bool) *node {
	st := BuildStats{Height: 1, Leaves: 1, TotalStored: len(idx), SeparatorTrials: trials, CriticalTrials: trials}
	if punted {
		st.Punts = 1
	}
	if forced {
		st.ForcedLeaves = 1
	}
	return &node{balls: idx, st: st}
}

// split classifies the balls idx against sep, preserving their order;
// crossing balls are duplicated into both sides (Section 3.2).
func split(sys *nbrsys.System, sep geom.Separator, idx []int) (left, right []int) {
	for _, j := range idx {
		switch sep.ClassifyBall(sys.Centers[j], sys.Radii[j]) {
		case geom.Interior:
			left = append(left, j)
		case geom.Exterior:
			right = append(right, j)
		default:
			left = append(left, j)
			right = append(right, j)
		}
	}
	return left, right
}

// Validate checks the structure against the neighborhood system it was
// built over, for tests and debugging:
//
//  1. shape: the arrays fit a full binary tree (2L−1 nodes over L leaf
//     slots), every child id lies after its parent and inside the node
//     array, and walking left/left+1 sibling pairs from the root reaches
//     every node and every leaf slot exactly once;
//  2. separators: every internal node is a sphere, whose r² band is
//     exactly the one its radius yields, or a halfspace;
//  3. partition: splitting the balls at each separator rebuilt from its
//     record, as the build does, leaves at each leaf exactly the ids it
//     stores, strictly ascending — so every ball is stored in every leaf
//     its geometry reaches, and nowhere else;
//  4. records: each inlined leaf record equals the ball's center and
//     r*r, bit for bit.
func (f *Frozen) Validate(sys *nbrsys.System) error {
	nodes, leaves := len(f.kind), len(f.leafOff)-1
	if sys == nil || sys.Len() == 0 || len(sys.Centers[0]) != f.dim || leaves < 1 || nodes != 2*leaves-1 ||
		len(f.child) != nodes || len(f.punted) != nodes || len(f.sep) != nodes*f.nstride ||
		f.leafOff[0] != 0 || int(f.leafOff[leaves]) != len(f.leafBalls) || len(f.leafRecs) != len(f.leafBalls)*f.stride {
		return errors.New("septree: array lengths do not fit one tree over the system")
	}
	seen, slotSeen := make([]bool, nodes), make([]bool, leaves)
	var walk func(i int32, idx []int) error
	walk = func(i int32, idx []int) error {
		if seen[i] {
			return fmt.Errorf("septree: node %d reached twice", i)
		}
		seen[i] = true
		if f.kind[i] == kindLeaf {
			return f.validateLeaf(sys, i, idx, slotSeen)
		}
		sep, left := f.Separator(i)
		if sep == nil {
			return fmt.Errorf("septree: node %d has unknown kind %d", i, f.kind[i])
		}
		rec := f.sep[int(i)*f.nstride : int(i+1)*f.nstride]
		lo, hi := sqrtFreeBand(rec[f.dim])
		if f.kind[i] == kindSphere && (!sameBits(lo, rec[f.dim+1]) || !sameBits(hi, rec[f.dim+2])) {
			return fmt.Errorf("septree: node %d r² band does not match its radius", i)
		}
		if left <= i || int(left)+1 >= nodes {
			return fmt.Errorf("septree: node %d child pair %d,%d out of range", i, left, left+1)
		}
		l, r := split(sys, sep, idx)
		if err := walk(left, l); err != nil {
			return err
		}
		return walk(left+1, r)
	}
	idx := make([]int, sys.Len())
	for i := range idx {
		idx[i] = i
	}
	if err := walk(0, idx); err != nil {
		return err
	}
	if i := slices.Index(seen, false); i >= 0 {
		return fmt.Errorf("septree: node %d unreachable from the root", i)
	}
	return nil
}

// validateLeaf checks leaf node i against idx, the ascending ids of the
// balls its region admits.
func (f *Frozen) validateLeaf(sys *nbrsys.System, i int32, idx []int, slotSeen []bool) error {
	slot := f.child[i]
	if slot < 0 || int(slot) >= len(slotSeen) || slotSeen[slot] {
		return fmt.Errorf("septree: leaf %d has bad or shared slot %d", i, slot)
	}
	slotSeen[slot] = true
	lo, hi := f.leafOff[slot], f.leafOff[slot+1]
	if lo < 0 || lo > hi || int(hi) > len(f.leafBalls) {
		return fmt.Errorf("septree: leaf %d offsets [%d, %d) out of range", i, lo, hi)
	}
	balls := f.leafBalls[lo:hi]
	if len(balls) != len(idx) {
		return fmt.Errorf("septree: leaf %d stores %d balls, its region admits %d", i, len(balls), len(idx))
	}
	for k, b := range balls {
		if int(b) != idx[k] { // idx ascends strictly, so the stored ids must too
			return fmt.Errorf("septree: leaf %d stores ball %d where its region admits %d", i, b, idx[k])
		}
		rec := f.leafRecs[(int(lo)+k)*f.stride : (int(lo)+k+1)*f.stride]
		r := sys.Radii[b]
		if !slices.EqualFunc(rec[:f.dim], sys.Centers[b], sameBits) || !sameBits(rec[f.dim], r*r) {
			return fmt.Errorf("septree: leaf %d record of ball %d differs from the system", i, b)
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
