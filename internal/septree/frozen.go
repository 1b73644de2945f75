package septree

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"sepdc/internal/geom"
	"sepdc/internal/nbrsys"
	"sepdc/internal/vec"
)

// Frozen is the search structure Build returns and its only form: a
// structure-of-arrays layout with no per-node pointers on the descent
// path. Every query — serving, the build's punt correction, the
// experiments, the invariant auditor — runs against these flat arrays:
//
//   - Nodes are stored with sibling pairs adjacent, so an internal node
//     records only its left child id (right = left + 1) and the branch
//     taken is a +0/+1 index adjustment, not a pointer load. Nodes are
//     grouped into van Emde Boas-style pair-blocks: blockLevels
//     consecutive tree levels of one subtree sit contiguously, so a
//     root-to-leaf descent touches ~depth/blockLevels separated memory
//     regions instead of one per level (a plain breadth-first order
//     scatters consecutive levels ever further apart as n grows, costing
//     one cache miss per hop). See blockedOrder.
//   - Separator geometry lives in one flat []float64 with stride d+3
//     (center‖radius‖r²-band for spheres, normal‖offset for the
//     hyperplane punts), so the descent touches one contiguous record
//     per node. The r² band [lo, hi] brackets radius² with enough margin
//     that for any squared distance outside it, comparing against the
//     band provably agrees with the separator's √dist² vs radius Side
//     test; the sqrt is evaluated only inside the band, taking the
//     correctly-rounded square root off the descent's dependency chain
//     on essentially every node without changing a single branch
//     decision.
//   - Leaf ball ids are packed CSR-style into one []int32, pre-sorted
//     ascending, so no post-scan sort is needed: filtering a sorted list
//     yields sorted output.
//   - Each leaf's candidate ball records (center ‖ r², stride d+1) are
//     inlined next to each other in a parallel CSR array, so the leaf
//     scan is one sequential stream with no per-candidate indirection —
//     trading Σ|leaf| × (d+1) words of duplicated storage (the same
//     asymptotic space as the id lists Lemma 3.1 already charges for)
//     for hardware-prefetchable scans. Radii are stored pre-squared,
//     eliminating the per-candidate multiply; r² is computed by the same
//     single multiplication r*r of the membership predicate, so results
//     stay bit-identical.
//
// All traversal arithmetic goes through the d-specialized vec kernels,
// which are bit-identical to the generic forms. Covering/CoveringClosed
// therefore return, in ascending order, exactly the ids the brute-force
// predicate selects over the neighborhood system: vec.Dist2(q, c) < r*r
// for open balls, vec.Dist2(q, c) <= r*r+geom.Eps for closed ones.
type Frozen struct {
	dim     int
	stride  int // dim + 1: ball record width (center ‖ r²)
	nstride int // dim + 3: node record width (geometry ‖ scalar ‖ r² band)

	kind   []uint8   // per node: kindSphere | kindHalf | kindLeaf
	child  []int32   // internal: left child id; leaf: leaf slot
	sep    []float64 // per node: nstride floats of separator geometry
	punted []bool    // per node: the build punted there (audit only; queries never read it)

	leafOff   []int32   // CSR offsets into leafBalls, one per leaf slot +1
	leafBalls []int32   // concatenated, ascending ball ids per leaf
	leafRecs  []float64 // leafBalls' records inlined, stride floats per id

	dist2    vec.Dist2Func
	dot      vec.DotFunc
	batch4   vec.Dist2Batch4Func   // four-wide scan kernel; nil disables batching
	batch8   vec.Dist2Batch8Func   // eight-wide query-blocked kernel; nil falls back to batch4
	strided8 vec.Dist2Strided8Func // eight-record stream kernel; nil falls back to batch4
	generic  bool                  // generic tier: also skip the d=4..8 inline descents

	// Stats describes the build that produced the structure.
	Stats BuildStats
}

const (
	kindSphere = iota
	kindHalf
	kindLeaf
)

// blockLevels is the pair-block height of the node order. Three levels
// put at most 2+4+8 = 14 node records (a pair and two generations below
// it) in one contiguous run — 560 B at d=2 (nstride 5), 1.2 KiB at d=8
// (nstride 11) — of which any single descent touches exactly 3 records
// spanning ≤ 2 cache lines of the sep array at d ≤ 5. Against a
// breadth-first order's line-per-level, that cuts the distinct lines a
// depth-D descent touches from ~D to ~D·2/3 at d ≤ 5 (and keeps the
// per-block records prefetchable at every d), while keeping blocks small
// enough that the top of every subtree stays resident across queries.
const blockLevels = 3

// Freeze returns a copy of f that shares its arrays, with the kernels
// captured again from the active vec dispatch tier: a second view of one
// structure under another tier, as knnbench's generic-tier reference.
func Freeze(f *Frozen) (*Frozen, error) {
	if f == nil {
		return nil, errors.New("septree: freeze of nil structure")
	}
	c := *f
	c.setKernels()
	return &c, nil
}

// setKernels captures the kernels from the active dispatch tier. The
// eight-lane forms are nil on tiers or builds without assembly, which
// the scan loops treat as "use the four-wide path". The generic tier
// takes the flat kernels, no batch kernels at all, and skips the d=4..8
// inline descents, so a KNN_KERNELS=generic run (or a Freeze under
// vec.SetActiveTier(vec.TierGeneric), knnbench's reference
// configuration) exercises the pre-dispatch arithmetic end to end. (The
// scan loops also rely on batch kernels reading only [0, dim) of the
// candidate's slot, which the flat generic batch kernel does not
// guarantee.)
func (f *Frozen) setKernels() {
	f.dist2 = vec.Dist2Kernel(f.dim)
	f.dot = vec.DotKernel(f.dim)
	f.generic = vec.ActiveTier() == vec.TierGeneric
	f.batch4, f.batch8, f.strided8 = nil, nil, nil
	if !f.generic {
		f.batch4 = vec.Dist2Batch4Kernel(f.dim)
		f.batch8 = vec.Dist2Batch8Kernel(f.dim)
		f.strided8 = vec.Dist2Strided8Kernel(f.dim)
	}
}

// blockedOrder returns the nodes in pair-blocked van Emde Boas-ish
// order, numbering each node with its position as it is placed. The
// traversal unit is a sibling pair (the root is a singleton unit): each
// unit is expanded breadth-first for blockLevels levels — that prefix is
// the block, stored contiguously — and the sibling pairs left on the
// frontier become child units, pushed so the leftmost subtree's blocks
// are emitted immediately after their parent block (root-subtree-first).
// Sibling adjacency holds everywhere: within a block children are
// appended in left,right pairs, and across blocks a pair enters as one
// unit and opens its block together.
func blockedOrder(root *node, nodes int) []*node {
	order := make([]*node, 0, nodes)
	stack := [][2]*node{{root, nil}}
	var level, next []*node
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		level = append(level[:0], u[0])
		if u[1] != nil {
			level = append(level, u[1])
		}
		for lvl := 0; lvl < blockLevels && len(level) > 0; lvl++ {
			next = next[:0]
			for _, nd := range level {
				nd.id = int32(len(order))
				order = append(order, nd)
				if nd.sep != nil {
					next = append(next, nd.left, nd.right)
				}
			}
			level, next = next, level
		}
		// The frontier below the block is a run of left,right pairs;
		// push right-to-left so the leftmost pair's block comes next.
		for i := len(level) - 2; i >= 0; i -= 2 {
			stack = append(stack, [2]*node{level[i], level[i+1]})
		}
	}
	return order
}

// emit lays the built tree out into the flat arrays, sized up front from
// the root's subtree counts (a full binary tree over L leaves has 2L−1
// nodes).
func emit(sys *nbrsys.System, root *node) *Frozen {
	dim := len(sys.Centers[0])
	nodes := 2*root.st.Leaves - 1
	stored := root.st.TotalStored
	f := &Frozen{
		dim:       dim,
		stride:    dim + 1,
		nstride:   dim + 3,
		kind:      make([]uint8, nodes),
		child:     make([]int32, nodes),
		sep:       make([]float64, nodes*(dim+3)),
		punted:    make([]bool, nodes),
		leafOff:   make([]int32, 1, root.st.Leaves+1),
		leafBalls: make([]int32, 0, stored),
		leafRecs:  make([]float64, 0, stored*(dim+1)),
	}
	f.setKernels()
	for i, nd := range blockedOrder(root, nodes) {
		if nd.sep == nil {
			f.kind[i] = kindLeaf
			f.child[i] = int32(len(f.leafOff) - 1)
			lo := len(f.leafBalls)
			for _, b := range nd.balls {
				f.leafBalls = append(f.leafBalls, int32(b))
			}
			slices.Sort(f.leafBalls[lo:])
			for _, b := range f.leafBalls[lo:] {
				f.leafRecs = append(f.leafRecs, sys.Centers[b]...)
				r := sys.Radii[b]
				f.leafRecs = append(f.leafRecs, r*r)
			}
			f.leafOff = append(f.leafOff, int32(len(f.leafBalls)))
			continue
		}
		rec := f.sep[i*f.nstride : (i+1)*f.nstride]
		switch sep := nd.sep.(type) {
		case geom.Sphere:
			f.kind[i] = kindSphere
			copy(rec, sep.Center)
			rec[dim] = sep.Radius
			rec[dim+1], rec[dim+2] = sqrtFreeBand(sep.Radius)
		case geom.Halfspace:
			f.kind[i] = kindHalf
			copy(rec, sep.Normal)
			rec[dim] = sep.Offset
		default:
			// The separator search returns only spheres and halfspaces.
			panic(fmt.Sprintf("septree: cannot emit separator type %T", nd.sep))
		}
		f.child[i] = nd.left.id
		f.punted[i] = nd.punted
	}
	return f
}

// sqrtFreeBand returns [lo, hi] bracketing r² such that for any squared
// distance d2 with d2 > hi, √d2 > r is certain, and with d2 < lo,
// √d2 ≤ r is certain — even though √ is evaluated in correctly-rounded
// floating point. The correctly-rounded sqrt can disagree with the
// squared comparison only within ~2 ulps of r²; the 1e-14 relative
// margin (≈45 ulps) covers that with room to spare, so outside the band
// the branch decision needs no square root at all. When the relative
// margin cannot strictly separate lo < r² < hi (r² zero, subnormal, or
// overflowed to +Inf), the band degenerates to (-Inf, +Inf) and every
// query at that node takes the exact sqrt path.
func sqrtFreeBand(r float64) (lo, hi float64) {
	r2 := r * r
	lo = r2 * (1 - 1e-14)
	hi = r2 * (1 + 1e-14)
	if !(lo < r2 && r2 < hi) {
		return math.Inf(-1), math.Inf(1)
	}
	return lo, hi
}

// Dim returns the ambient dimension.
func (f *Frozen) Dim() int { return f.dim }

// NumNodes returns the total node count of the frozen tree.
func (f *Frozen) NumNodes() int { return len(f.kind) }

// NumLeaves returns the leaf count.
func (f *Frozen) NumLeaves() int { return len(f.leafOff) - 1 }

// StoredBalls returns Σ over leaves of stored ball ids (the Lemma 3.1
// space quantity).
func (f *Frozen) StoredBalls() int { return len(f.leafBalls) }

// Separator returns node i's separator, rebuilt exactly from its record,
// and the id of its left child (the right child is left+1). Node 0 is
// the root. At a leaf it returns a nil separator.
func (f *Frozen) Separator(i int32) (sep geom.Separator, left int32) {
	base := int(i) * f.nstride
	geo, scalar := vec.Vec(f.sep[base:base+f.dim:base+f.dim]), f.sep[base+f.dim]
	switch f.kind[i] {
	case kindSphere:
		return geom.Sphere{Center: geo, Radius: scalar}, f.child[i]
	case kindHalf:
		return geom.Halfspace{Normal: geo, Offset: scalar}, f.child[i]
	}
	return nil, 0
}

// Punted reports whether the build's separator search at internal node
// i fell back to a median hyperplane. Only the auditor reads it.
func (f *Frozen) Punted(i int32) bool { return f.punted[i] }

// LeafBalls returns leaf node i's ball ids, ascending. The slice shares
// the structure's storage and must not be modified.
func (f *Frozen) LeafBalls(i int32) []int32 {
	slot := f.child[i]
	return f.leafBalls[f.leafOff[slot]:f.leafOff[slot+1]]
}

// descend walks from the root to the leaf containing q and returns the
// leaf's node id and the number of nodes visited on the way (leaf
// included: len of DescendPath's path).
func (f *Frozen) descend(q []float64) (int32, int) {
	dist2, dot := f.dist2, f.dot
	nstride, dim := f.nstride, f.dim
	i := int32(0)
	visited := 0
	for f.kind[i] != kindLeaf {
		visited++
		rec := f.sep[int(i)*nstride : int(i)*nstride+nstride]
		// The paper's rule sends Side <= 0 (interior, incl. on-surface)
		// left. Phrased as "right only when strictly positive" so that a
		// NaN side (unreachable through the validated public API) takes
		// the same branch as the Side() == 0 case.
		right := false
		if f.kind[i] == kindSphere {
			d2 := dist2(q, rec[:dim])
			if d2 > rec[dim+2] {
				right = true
			} else if d2 >= rec[dim+1] {
				right = math.Sqrt(d2)-rec[dim] > 0
			}
		} else {
			right = dot(rec[:dim], q)-rec[dim] > 0
		}
		if right {
			i = f.child[i] + 1
		} else {
			i = f.child[i]
		}
	}
	return i, visited + 1
}

// DescendPath is descend with the route captured: it appends every node
// id on the root-to-leaf path (leaf included) to path and returns the
// leaf id. The serving telemetry's sampled queries take this entry
// point so tail samples can retain the exact descent a slow query took.
// The branch decisions are the generic kernels', which are bit-identical
// to the d=2/3 specializations, so a sampled query answers exactly like
// an unsampled one.
func (f *Frozen) DescendPath(q []float64, path []int32) (leaf int32, outPath []int32) {
	switch f.dim {
	case 2:
		return f.descendPath2(q, path)
	case 3:
		return f.descendPath3(q, path)
	}
	if !f.generic {
		switch f.dim {
		case 4:
			return f.descendPath4(q, path)
		case 5:
			return f.descendPath5(q, path)
		case 6:
			return f.descendPath6(q, path)
		case 7:
			return f.descendPath7(q, path)
		case 8:
			return f.descendPath8(q, path)
		}
	}
	dist2, dot := f.dist2, f.dot
	nstride, dim := f.nstride, f.dim
	i := int32(0)
	for f.kind[i] != kindLeaf {
		path = append(path, i)
		rec := f.sep[int(i)*nstride : int(i)*nstride+nstride]
		right := false
		if f.kind[i] == kindSphere {
			d2 := dist2(q, rec[:dim])
			if d2 > rec[dim+2] {
				right = true
			} else if d2 >= rec[dim+1] {
				right = math.Sqrt(d2)-rec[dim] > 0
			}
		} else {
			right = dot(rec[:dim], q)-rec[dim] > 0
		}
		if right {
			i = f.child[i] + 1
		} else {
			i = f.child[i]
		}
	}
	return i, append(path, i)
}

// ScanLeaf scans the leaf's CSR candidate list with the open (or, with
// closed=true, boundary-inclusive) membership predicate, appending
// matching ball ids to out in ascending order. It returns the extended
// slice and the number of candidates scanned. For any q,
// Covering(q, out) equals descending to the leaf and calling ScanLeaf —
// the generic Covering paths are built from exactly these two halves.
func (f *Frozen) ScanLeaf(leaf int32, q []float64, closed bool, out []int) (res []int, leafScanned int) {
	switch f.dim {
	case 2:
		return f.scanLeaf2(leaf, q, closed, out)
	case 3:
		return f.scanLeaf3(leaf, q, closed, out)
	}
	slot := f.child[leaf]
	lo, hi := f.leafOff[slot], f.leafOff[slot+1]
	balls := f.leafBalls[lo:hi]
	dist2, stride := f.dist2, f.stride
	recs := f.leafRecs[int(lo)*stride : int(hi)*stride]
	n := len(balls)
	k := 0
	// Eight candidates per kernel call when the assembly record-stream
	// kernel is available: it consumes the CSR record window at its
	// natural stride, so eight inlined candidate records are scanned per
	// indirect call with no per-candidate subslicing at all. Each lane
	// is computed with the exact left-to-right accumulation of the
	// single-pair kernel, so the strided, four-wide, and remainder
	// candidates all admit the same set of ids.
	if s8 := f.strided8; s8 != nil {
		if closed {
			for ; k+8 <= n; k += 8 {
				m := k * stride
				d0, d1, d2, d3, d4, d5, d6, d7 := s8(q, recs[m:], stride)
				if d0 <= recs[m+stride-1]+geom.Eps {
					out = append(out, int(balls[k]))
				}
				if d1 <= recs[m+2*stride-1]+geom.Eps {
					out = append(out, int(balls[k+1]))
				}
				if d2 <= recs[m+3*stride-1]+geom.Eps {
					out = append(out, int(balls[k+2]))
				}
				if d3 <= recs[m+4*stride-1]+geom.Eps {
					out = append(out, int(balls[k+3]))
				}
				if d4 <= recs[m+5*stride-1]+geom.Eps {
					out = append(out, int(balls[k+4]))
				}
				if d5 <= recs[m+6*stride-1]+geom.Eps {
					out = append(out, int(balls[k+5]))
				}
				if d6 <= recs[m+7*stride-1]+geom.Eps {
					out = append(out, int(balls[k+6]))
				}
				if d7 <= recs[m+8*stride-1]+geom.Eps {
					out = append(out, int(balls[k+7]))
				}
			}
		} else {
			for ; k+8 <= n; k += 8 {
				m := k * stride
				d0, d1, d2, d3, d4, d5, d6, d7 := s8(q, recs[m:], stride)
				if d0 < recs[m+stride-1] {
					out = append(out, int(balls[k]))
				}
				if d1 < recs[m+2*stride-1] {
					out = append(out, int(balls[k+1]))
				}
				if d2 < recs[m+3*stride-1] {
					out = append(out, int(balls[k+2]))
				}
				if d3 < recs[m+4*stride-1] {
					out = append(out, int(balls[k+3]))
				}
				if d4 < recs[m+5*stride-1] {
					out = append(out, int(balls[k+4]))
				}
				if d5 < recs[m+6*stride-1] {
					out = append(out, int(balls[k+5]))
				}
				if d6 < recs[m+7*stride-1] {
					out = append(out, int(balls[k+6]))
				}
				if d7 < recs[m+8*stride-1] {
					out = append(out, int(balls[k+7]))
				}
			}
		}
	}
	// Four candidates per kernel call: one query record load amortized
	// over four inlined candidate records, each lane computed with the
	// exact left-to-right accumulation of the single-pair kernel, so the
	// batched and remainder candidates admit the same set of ids. The
	// kernels index only [0, dim) of each operand, so handing them the
	// full stride-wide record (center ‖ r²) is safe and skips a subslice.
	if batch4 := f.batch4; batch4 != nil {
		if closed {
			for ; k+4 <= n; k += 4 {
				m := k * stride
				da, db, dc, dd := batch4(q, recs[m:], recs[m+stride:], recs[m+2*stride:], recs[m+3*stride:])
				if da <= recs[m+stride-1]+geom.Eps {
					out = append(out, int(balls[k]))
				}
				if db <= recs[m+2*stride-1]+geom.Eps {
					out = append(out, int(balls[k+1]))
				}
				if dc <= recs[m+3*stride-1]+geom.Eps {
					out = append(out, int(balls[k+2]))
				}
				if dd <= recs[m+4*stride-1]+geom.Eps {
					out = append(out, int(balls[k+3]))
				}
			}
		} else {
			for ; k+4 <= n; k += 4 {
				m := k * stride
				da, db, dc, dd := batch4(q, recs[m:], recs[m+stride:], recs[m+2*stride:], recs[m+3*stride:])
				if da < recs[m+stride-1] {
					out = append(out, int(balls[k]))
				}
				if db < recs[m+2*stride-1] {
					out = append(out, int(balls[k+1]))
				}
				if dc < recs[m+3*stride-1] {
					out = append(out, int(balls[k+2]))
				}
				if dd < recs[m+4*stride-1] {
					out = append(out, int(balls[k+3]))
				}
			}
		}
	}
	if closed {
		for ; k < n; k++ {
			m := k * stride
			rec := recs[m : m+stride : m+stride]
			if dist2(q, rec[:stride-1]) <= rec[stride-1]+geom.Eps {
				out = append(out, int(balls[k]))
			}
		}
	} else {
		for ; k < n; k++ {
			m := k * stride
			rec := recs[m : m+stride : m+stride]
			if dist2(q, rec[:stride-1]) < rec[stride-1] {
				out = append(out, int(balls[k]))
			}
		}
	}
	return out, n
}

// scanLeafBlock scans one leaf's candidate stream on behalf of several
// queries that all descended to it, appending each query's hits to its
// own outs lane. For full groups of eight (asm tier) or four lanes the
// loop order is inverted relative to ScanLeaf — candidates outermost —
// so the leaf's records stream through cache once per lane group and
// the wide kernel amortizes each candidate load over the group's query
// lanes (dist²(c, q) is bitwise equal to dist²(q, c), so the candidate
// can sit in the kernel's query slot). Lanes [nq8, nq4) run through the
// four-wide kernel; lanes past nq4 take one candidate-blocked ScanLeaf
// pass each over the records the block loop just streamed (still warm)
// — every lane runs wide in one orientation or the other, never
// through the single-pair kernel. Candidates are visited in
// ascending-id order in every shape, so each lane's hits come out
// ascending, exactly as ScanLeaf would produce them; each lane's
// compare uses the same expression as the sequential path, keeping
// blocked answers bit-identical. Returns the number of candidates
// scanned (charged to every query in the block).
func (f *Frozen) scanLeafBlock(leaf int32, qs [][]float64, closed bool, outs [][]int) int {
	slot := f.child[leaf]
	lo, hi := f.leafOff[slot], f.leafOff[slot+1]
	balls := f.leafBalls[lo:hi]
	batch4, batch8, stride := f.batch4, f.batch8, f.stride
	recs := f.leafRecs[int(lo)*stride : int(hi)*stride]
	nq := len(qs)
	nq4, nq8 := 0, 0
	if batch4 != nil {
		nq4 = nq &^ 3
	}
	if batch8 != nil {
		nq8 = nq &^ 7
		if nq4 < nq8 {
			// batch8 without batch4 cannot happen through freeze, but keep
			// the lane accounting self-consistent regardless.
			nq4 = nq8
		}
	}
	// The candidate's record goes in the kernel's query slot bounded to
	// its center's dim coordinates: the fixed-dim and asm kernels index
	// only [0, dim) anyway, and the flat fallback (d > 8) sizes its loop
	// from that slot's length. The closed/open split keeps the
	// membership branch out of the candidate loop, mirroring ScanLeaf's
	// candidate-blocked body. batch8 reads its eight query headers
	// straight from the qs window.
	dim := stride - 1
	if nq4 > 0 && closed {
		for k, j := range balls {
			m := k * stride
			thr := recs[m+stride-1] + geom.Eps
			id := int(j)
			li := 0
			for ; li < nq8; li += 8 {
				d0, d1, d2, d3, d4, d5, d6, d7 := batch8(recs[m:m+dim], qs[li:])
				if d0 <= thr {
					outs[li] = append(outs[li], id)
				}
				if d1 <= thr {
					outs[li+1] = append(outs[li+1], id)
				}
				if d2 <= thr {
					outs[li+2] = append(outs[li+2], id)
				}
				if d3 <= thr {
					outs[li+3] = append(outs[li+3], id)
				}
				if d4 <= thr {
					outs[li+4] = append(outs[li+4], id)
				}
				if d5 <= thr {
					outs[li+5] = append(outs[li+5], id)
				}
				if d6 <= thr {
					outs[li+6] = append(outs[li+6], id)
				}
				if d7 <= thr {
					outs[li+7] = append(outs[li+7], id)
				}
			}
			for ; li < nq4; li += 4 {
				da, db, dc, dd := batch4(recs[m:m+dim], qs[li], qs[li+1], qs[li+2], qs[li+3])
				if da <= thr {
					outs[li] = append(outs[li], id)
				}
				if db <= thr {
					outs[li+1] = append(outs[li+1], id)
				}
				if dc <= thr {
					outs[li+2] = append(outs[li+2], id)
				}
				if dd <= thr {
					outs[li+3] = append(outs[li+3], id)
				}
			}
		}
	} else if nq4 > 0 {
		for k, j := range balls {
			m := k * stride
			thr := recs[m+stride-1]
			id := int(j)
			li := 0
			for ; li < nq8; li += 8 {
				d0, d1, d2, d3, d4, d5, d6, d7 := batch8(recs[m:m+dim], qs[li:])
				if d0 < thr {
					outs[li] = append(outs[li], id)
				}
				if d1 < thr {
					outs[li+1] = append(outs[li+1], id)
				}
				if d2 < thr {
					outs[li+2] = append(outs[li+2], id)
				}
				if d3 < thr {
					outs[li+3] = append(outs[li+3], id)
				}
				if d4 < thr {
					outs[li+4] = append(outs[li+4], id)
				}
				if d5 < thr {
					outs[li+5] = append(outs[li+5], id)
				}
				if d6 < thr {
					outs[li+6] = append(outs[li+6], id)
				}
				if d7 < thr {
					outs[li+7] = append(outs[li+7], id)
				}
			}
			for ; li < nq4; li += 4 {
				da, db, dc, dd := batch4(recs[m:m+dim], qs[li], qs[li+1], qs[li+2], qs[li+3])
				if da < thr {
					outs[li] = append(outs[li], id)
				}
				if db < thr {
					outs[li+1] = append(outs[li+1], id)
				}
				if dc < thr {
					outs[li+2] = append(outs[li+2], id)
				}
				if dd < thr {
					outs[li+3] = append(outs[li+3], id)
				}
			}
		}
	}
	for li := nq4; li < nq; li++ {
		outs[li], _ = f.ScanLeaf(leaf, qs[li], closed, outs[li])
	}
	return len(balls)
}

// Covering appends to out the ids of all balls whose open interior
// contains q, in ascending order.
// It returns the extended slice, the nodes visited, and the number of
// leaf candidates scanned. out is reused via append semantics; pass
// out[:0] to recycle a buffer. The call allocates only if out's capacity
// is exceeded.
func (f *Frozen) Covering(q []float64, out []int) (res []int, nodesVisited, leafScanned int) {
	switch f.dim {
	case 2:
		return f.covering2(q, out, false)
	case 3:
		return f.covering3(q, out, false)
	}
	leaf, visited := f.descend(q)
	out, scanned := f.ScanLeaf(leaf, q, false, out)
	return out, visited, scanned
}

// CoveringClosed is Covering with closed-ball membership (boundary
// included, with geom.Eps slack on r²). The build's punt correction
// uses closed balls so that candidate neighbors at exactly the current
// k-th distance are not lost.
func (f *Frozen) CoveringClosed(q []float64, out []int) (res []int, nodesVisited, leafScanned int) {
	switch f.dim {
	case 2:
		return f.covering2(q, out, true)
	case 3:
		return f.covering3(q, out, true)
	}
	leaf, visited := f.descend(q)
	out, scanned := f.ScanLeaf(leaf, q, true, out)
	return out, visited, scanned
}

// covering2 and covering3 are the d = 2 and d = 3 traversals with the vec
// kernels inlined: the indirect call per node and per leaf candidate is
// the dominant cost of the generic path at these dimensions. Every
// floating-point expression mirrors the corresponding kernel operation for
// operation (same operands, same order), so the results remain
// bit-identical to the generic path.

func (f *Frozen) covering2(q []float64, out []int, closed bool) (res []int, nodesVisited, leafScanned int) {
	q0, q1 := q[0], q[1]
	kind, child, sep := f.kind, f.child, f.sep
	i := int32(0)
	visited := 0
	for k := kind[i]; k != kindLeaf; k = kind[i] {
		visited++
		base := int(i) * 5
		rec := sep[base : base+5 : base+5]
		right := false
		if k == kindSphere {
			d0 := q0 - rec[0]
			d1 := q1 - rec[1]
			d2 := d0*d0 + d1*d1
			if d2 > rec[4] {
				right = true
			} else if d2 >= rec[3] {
				right = math.Sqrt(d2)-rec[2] > 0
			}
		} else {
			s := 0.0
			s += rec[0] * q0
			s += rec[1] * q1
			right = s-rec[2] > 0
		}
		if right {
			i = child[i] + 1
		} else {
			i = child[i]
		}
	}
	visited++
	slot := child[i]
	lo, hi := f.leafOff[slot], f.leafOff[slot+1]
	balls := f.leafBalls[lo:hi]
	recs := f.leafRecs[int(lo)*3 : int(hi)*3]
	// The m+2 < len(recs) guard lets the compiler prove all three record
	// accesses in bounds, so the scan runs bounds-check-free.
	if closed {
		bi := 0
		for m := 0; m+2 < len(recs); m += 3 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			if d0*d0+d1*d1 <= recs[m+2]+geom.Eps {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	} else {
		bi := 0
		for m := 0; m+2 < len(recs); m += 3 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			if d0*d0+d1*d1 < recs[m+2] {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	}
	return out, visited, len(balls)
}

func (f *Frozen) covering3(q []float64, out []int, closed bool) (res []int, nodesVisited, leafScanned int) {
	q0, q1, q2 := q[0], q[1], q[2]
	kind, child, sep := f.kind, f.child, f.sep
	i := int32(0)
	visited := 0
	for k := kind[i]; k != kindLeaf; k = kind[i] {
		visited++
		base := int(i) * 6
		rec := sep[base : base+6 : base+6]
		right := false
		if k == kindSphere {
			d0 := q0 - rec[0]
			d1 := q1 - rec[1]
			d2 := q2 - rec[2]
			dd := (d0*d0 + d1*d1) + d2*d2
			if dd > rec[5] {
				right = true
			} else if dd >= rec[4] {
				right = math.Sqrt(dd)-rec[3] > 0
			}
		} else {
			s := 0.0
			s += rec[0] * q0
			s += rec[1] * q1
			s += rec[2] * q2
			right = s-rec[3] > 0
		}
		if right {
			i = child[i] + 1
		} else {
			i = child[i]
		}
	}
	visited++
	slot := child[i]
	lo, hi := f.leafOff[slot], f.leafOff[slot+1]
	balls := f.leafBalls[lo:hi]
	recs := f.leafRecs[int(lo)*4 : int(hi)*4]
	// As in covering2: the m+3 < len(recs) guard makes the scan
	// bounds-check-free.
	if closed {
		bi := 0
		for m := 0; m+3 < len(recs); m += 4 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			d2 := q2 - recs[m+2]
			if (d0*d0+d1*d1)+d2*d2 <= recs[m+3]+geom.Eps {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	} else {
		bi := 0
		for m := 0; m+3 < len(recs); m += 4 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			d2 := q2 - recs[m+2]
			if (d0*d0+d1*d1)+d2*d2 < recs[m+3] {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	}
	return out, visited, len(balls)
}

// descendPath2/3 and scanLeaf2/3 are the d = 2 and d = 3 halves of the
// covering2/covering3 traversals with the route captured — the same
// floating-point expressions operation for operation, so a sampled
// (timed) query stays bit-identical to the inlined covering paths. They
// exist so the telemetry's sampled queries don't regress to the generic
// kernels' indirect calls at the hot dimensions.

func (f *Frozen) descendPath2(q []float64, path []int32) (leaf int32, outPath []int32) {
	q0, q1 := q[0], q[1]
	kind, child, sep := f.kind, f.child, f.sep
	i := int32(0)
	for k := kind[i]; k != kindLeaf; k = kind[i] {
		path = append(path, i)
		base := int(i) * 5
		rec := sep[base : base+5 : base+5]
		right := false
		if k == kindSphere {
			d0 := q0 - rec[0]
			d1 := q1 - rec[1]
			d2 := d0*d0 + d1*d1
			if d2 > rec[4] {
				right = true
			} else if d2 >= rec[3] {
				right = math.Sqrt(d2)-rec[2] > 0
			}
		} else {
			s := 0.0
			s += rec[0] * q0
			s += rec[1] * q1
			right = s-rec[2] > 0
		}
		if right {
			i = child[i] + 1
		} else {
			i = child[i]
		}
	}
	return i, append(path, i)
}

func (f *Frozen) descendPath3(q []float64, path []int32) (leaf int32, outPath []int32) {
	q0, q1, q2 := q[0], q[1], q[2]
	kind, child, sep := f.kind, f.child, f.sep
	i := int32(0)
	for k := kind[i]; k != kindLeaf; k = kind[i] {
		path = append(path, i)
		base := int(i) * 6
		rec := sep[base : base+6 : base+6]
		right := false
		if k == kindSphere {
			d0 := q0 - rec[0]
			d1 := q1 - rec[1]
			d2 := q2 - rec[2]
			dd := (d0*d0 + d1*d1) + d2*d2
			if dd > rec[5] {
				right = true
			} else if dd >= rec[4] {
				right = math.Sqrt(dd)-rec[3] > 0
			}
		} else {
			s := 0.0
			s += rec[0] * q0
			s += rec[1] * q1
			s += rec[2] * q2
			right = s-rec[3] > 0
		}
		if right {
			i = child[i] + 1
		} else {
			i = child[i]
		}
	}
	return i, append(path, i)
}

// descendPath4..8 extend the inline-descent family to the rest of the
// dispatch-table range. Unlike d=2/3 there is no whole-path covering
// specialization at these dimensions — the leaf scans are already
// four-wide through ScanLeaf/scanLeafBlock — but the descent's per-node
// kernel is small enough that the indirect call dominates it, so the
// blocked batch engine's phase 1 (and the telemetry's sampled queries)
// route here. Each distance/dot expression is the corresponding vec
// kernel's, operation for operation, keeping branch decisions
// bit-identical to the generic loop; the generic tier bypasses these.

func (f *Frozen) descendPath4(q []float64, path []int32) (leaf int32, outPath []int32) {
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	kind, child, sep := f.kind, f.child, f.sep
	i := int32(0)
	for k := kind[i]; k != kindLeaf; k = kind[i] {
		path = append(path, i)
		base := int(i) * 7
		rec := sep[base : base+7 : base+7]
		right := false
		if k == kindSphere {
			d0 := q0 - rec[0]
			d1 := q1 - rec[1]
			d2 := q2 - rec[2]
			d3 := q3 - rec[3]
			dd := ((d0*d0 + d1*d1) + d2*d2) + d3*d3
			if dd > rec[6] {
				right = true
			} else if dd >= rec[5] {
				right = math.Sqrt(dd)-rec[4] > 0
			}
		} else {
			s := 0.0
			s += rec[0] * q0
			s += rec[1] * q1
			s += rec[2] * q2
			s += rec[3] * q3
			right = s-rec[4] > 0
		}
		if right {
			i = child[i] + 1
		} else {
			i = child[i]
		}
	}
	return i, append(path, i)
}

func (f *Frozen) descendPath5(q []float64, path []int32) (leaf int32, outPath []int32) {
	q0, q1, q2, q3, q4 := q[0], q[1], q[2], q[3], q[4]
	kind, child, sep := f.kind, f.child, f.sep
	i := int32(0)
	for k := kind[i]; k != kindLeaf; k = kind[i] {
		path = append(path, i)
		base := int(i) * 8
		rec := sep[base : base+8 : base+8]
		right := false
		if k == kindSphere {
			d0 := q0 - rec[0]
			d1 := q1 - rec[1]
			d2 := q2 - rec[2]
			d3 := q3 - rec[3]
			d4 := q4 - rec[4]
			dd := (((d0*d0 + d1*d1) + d2*d2) + d3*d3) + d4*d4
			if dd > rec[7] {
				right = true
			} else if dd >= rec[6] {
				right = math.Sqrt(dd)-rec[5] > 0
			}
		} else {
			s := 0.0
			s += rec[0] * q0
			s += rec[1] * q1
			s += rec[2] * q2
			s += rec[3] * q3
			s += rec[4] * q4
			right = s-rec[5] > 0
		}
		if right {
			i = child[i] + 1
		} else {
			i = child[i]
		}
	}
	return i, append(path, i)
}

func (f *Frozen) descendPath6(q []float64, path []int32) (leaf int32, outPath []int32) {
	q0, q1, q2, q3, q4, q5 := q[0], q[1], q[2], q[3], q[4], q[5]
	kind, child, sep := f.kind, f.child, f.sep
	i := int32(0)
	for k := kind[i]; k != kindLeaf; k = kind[i] {
		path = append(path, i)
		base := int(i) * 9
		rec := sep[base : base+9 : base+9]
		right := false
		if k == kindSphere {
			d0 := q0 - rec[0]
			d1 := q1 - rec[1]
			d2 := q2 - rec[2]
			d3 := q3 - rec[3]
			d4 := q4 - rec[4]
			d5 := q5 - rec[5]
			dd := ((((d0*d0 + d1*d1) + d2*d2) + d3*d3) + d4*d4) + d5*d5
			if dd > rec[8] {
				right = true
			} else if dd >= rec[7] {
				right = math.Sqrt(dd)-rec[6] > 0
			}
		} else {
			s := 0.0
			s += rec[0] * q0
			s += rec[1] * q1
			s += rec[2] * q2
			s += rec[3] * q3
			s += rec[4] * q4
			s += rec[5] * q5
			right = s-rec[6] > 0
		}
		if right {
			i = child[i] + 1
		} else {
			i = child[i]
		}
	}
	return i, append(path, i)
}

func (f *Frozen) descendPath7(q []float64, path []int32) (leaf int32, outPath []int32) {
	q0, q1, q2, q3, q4, q5, q6 := q[0], q[1], q[2], q[3], q[4], q[5], q[6]
	kind, child, sep := f.kind, f.child, f.sep
	i := int32(0)
	for k := kind[i]; k != kindLeaf; k = kind[i] {
		path = append(path, i)
		base := int(i) * 10
		rec := sep[base : base+10 : base+10]
		right := false
		if k == kindSphere {
			d0 := q0 - rec[0]
			d1 := q1 - rec[1]
			d2 := q2 - rec[2]
			d3 := q3 - rec[3]
			d4 := q4 - rec[4]
			d5 := q5 - rec[5]
			d6 := q6 - rec[6]
			dd := (((((d0*d0 + d1*d1) + d2*d2) + d3*d3) + d4*d4) + d5*d5) + d6*d6
			if dd > rec[9] {
				right = true
			} else if dd >= rec[8] {
				right = math.Sqrt(dd)-rec[7] > 0
			}
		} else {
			s := 0.0
			s += rec[0] * q0
			s += rec[1] * q1
			s += rec[2] * q2
			s += rec[3] * q3
			s += rec[4] * q4
			s += rec[5] * q5
			s += rec[6] * q6
			right = s-rec[7] > 0
		}
		if right {
			i = child[i] + 1
		} else {
			i = child[i]
		}
	}
	return i, append(path, i)
}

func (f *Frozen) descendPath8(q []float64, path []int32) (leaf int32, outPath []int32) {
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	q4, q5, q6, q7 := q[4], q[5], q[6], q[7]
	kind, child, sep := f.kind, f.child, f.sep
	i := int32(0)
	for k := kind[i]; k != kindLeaf; k = kind[i] {
		path = append(path, i)
		base := int(i) * 11
		rec := sep[base : base+11 : base+11]
		right := false
		if k == kindSphere {
			d0 := q0 - rec[0]
			d1 := q1 - rec[1]
			d2 := q2 - rec[2]
			d3 := q3 - rec[3]
			d4 := q4 - rec[4]
			d5 := q5 - rec[5]
			d6 := q6 - rec[6]
			d7 := q7 - rec[7]
			dd := ((((((d0*d0 + d1*d1) + d2*d2) + d3*d3) + d4*d4) + d5*d5) + d6*d6) + d7*d7
			if dd > rec[10] {
				right = true
			} else if dd >= rec[9] {
				right = math.Sqrt(dd)-rec[8] > 0
			}
		} else {
			s := 0.0
			s += rec[0] * q0
			s += rec[1] * q1
			s += rec[2] * q2
			s += rec[3] * q3
			s += rec[4] * q4
			s += rec[5] * q5
			s += rec[6] * q6
			s += rec[7] * q7
			right = s-rec[8] > 0
		}
		if right {
			i = child[i] + 1
		} else {
			i = child[i]
		}
	}
	return i, append(path, i)
}

func (f *Frozen) scanLeaf2(leaf int32, q []float64, closed bool, out []int) (res []int, leafScanned int) {
	q0, q1 := q[0], q[1]
	slot := f.child[leaf]
	lo, hi := f.leafOff[slot], f.leafOff[slot+1]
	balls := f.leafBalls[lo:hi]
	recs := f.leafRecs[int(lo)*3 : int(hi)*3]
	if closed {
		bi := 0
		for m := 0; m+2 < len(recs); m += 3 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			if d0*d0+d1*d1 <= recs[m+2]+geom.Eps {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	} else {
		bi := 0
		for m := 0; m+2 < len(recs); m += 3 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			if d0*d0+d1*d1 < recs[m+2] {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	}
	return out, len(balls)
}

func (f *Frozen) scanLeaf3(leaf int32, q []float64, closed bool, out []int) (res []int, leafScanned int) {
	q0, q1, q2 := q[0], q[1], q[2]
	slot := f.child[leaf]
	lo, hi := f.leafOff[slot], f.leafOff[slot+1]
	balls := f.leafBalls[lo:hi]
	recs := f.leafRecs[int(lo)*4 : int(hi)*4]
	if closed {
		bi := 0
		for m := 0; m+3 < len(recs); m += 4 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			d2 := q2 - recs[m+2]
			if (d0*d0+d1*d1)+d2*d2 <= recs[m+3]+geom.Eps {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	} else {
		bi := 0
		for m := 0; m+3 < len(recs); m += 4 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			d2 := q2 - recs[m+2]
			if (d0*d0+d1*d1)+d2*d2 < recs[m+3] {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	}
	return out, len(balls)
}
