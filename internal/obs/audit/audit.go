// Package audit re-measures the paper's invariants on a built search
// structure and scores them against their stated bounds:
//
//   - Theorem 2.1: a random sphere separator crosses
//     ι(S) = O(k^{1/d}·m^{(d-1)/d}) of the m k-neighborhood balls at
//     each node. The auditor re-partitions every internal node's subset
//     and reports the worst observed ι / (k^{1/d}·m^{(d-1)/d}).
//   - δ-split: every non-punted separator must split its subset's ball
//     centers no worse than δ = (d+1)/(d+2)+ε (exactly the acceptance
//     test the build ran; re-verified from scratch here).
//   - Punting Lemma: the punt fallback keeps the tree depth O(log n);
//     the auditor checks height ≤ 2·log₂n + 2 and reports the punt
//     rate.
//   - Lemma 6.1 (space): Σ stored balls over leaves stays O(n) despite
//     crossing-ball duplication.
//   - Theorem 3.1 (query): probe queries through the frozen engine must
//     visit O(log n) nodes and scan O(k + log n) leaf candidates.
//
// The result is a Report: a pass/fail table for cmd/knn -audit and a
// set of gauges for the /metrics exposition.
package audit

import (
	"errors"
	"fmt"
	"io"
	"math"

	"sepdc/internal/geom"
	"sepdc/internal/nbrsys"
	"sepdc/internal/obs"
	"sepdc/internal/separator"
	"sepdc/internal/septree"
)

// Config tunes the audited constants. The paper gives asymptotics; the
// constants here are the empirical ceilings the repo commits to (large
// enough to be distribution-robust, small enough that a regression —
// a degenerate separator search, a broken partition — trips them).
type Config struct {
	// K is the neighborhood size the structure was built with (required).
	K int
	// IotaC bounds ι(S) ≤ IotaC·k^{1/d}·m^{(d-1)/d} at every audited
	// node. 0 selects 4.
	IotaC float64
	// SpaceC bounds Σ stored ≤ SpaceC·n. 0 selects 16^(d−1) (min 4):
	// Lemma 6.1's linear-space constant is dimension-exponential in
	// practice — crossing duplication multiplies stored mass by
	// (1 + Θ((k/m₀)^{1/d})) per level near the leaves, and measured
	// ceilings at k=4 are ≈5.5·n in d=2 but ≈160·n in d=3.
	SpaceC float64
	// QueryNodesC bounds mean probe nodes ≤ QueryNodesC·(log₂n + 1).
	// 0 selects 4.
	QueryNodesC float64
	// QueryCandsC bounds mean probe candidates ≤ QueryCandsC·(k + log₂n).
	// 0 selects 4.
	QueryCandsC float64
	// MaxPuntRate bounds punted nodes / internal nodes. 0 selects 0.25
	// (the Punting Lemma tolerates punts; a high rate signals the
	// separator search has stopped working, not a broken theorem).
	MaxPuntRate float64
	// MinIotaNodes skips the ι check at nodes smaller than this (the
	// constant is asymptotic; tiny subsets are all boundary). 0 selects 64.
	MinIotaNodes int
	// Delta overrides the δ-split target. 0 selects
	// separator.DefaultDelta(d) — what a default build enforced.
	Delta float64
}

func (c Config) iotaC() float64 { return orf(c.IotaC, 4) }
func (c Config) spaceC(d int) float64 {
	if c.SpaceC > 0 {
		return c.SpaceC
	}
	s := math.Pow(16, float64(d-1))
	if s < 4 {
		s = 4
	}
	return s
}
func (c Config) nodesC() float64  { return orf(c.QueryNodesC, 4) }
func (c Config) candsC() float64  { return orf(c.QueryCandsC, 4) }
func (c Config) puntMax() float64 { return orf(c.MaxPuntRate, 0.25) }
func (c Config) minIota() int {
	if c.MinIotaNodes <= 0 {
		return 64
	}
	return c.MinIotaNodes
}

func orf(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}

// Check is one audited invariant: Observed against Bound, Pass when
// Observed ≤ Bound. Ratio = Observed/Bound (headroom gauge: < 1 passes).
type Check struct {
	Name     string  `json:"name"`
	Theorem  string  `json:"theorem"`
	Observed float64 `json:"observed"`
	Bound    float64 `json:"bound"`
	Ratio    float64 `json:"ratio"`
	Pass     bool    `json:"pass"`
	Detail   string  `json:"detail,omitempty"`
}

// Report is the full audit outcome for one built structure.
type Report struct {
	Gen    string  `json:"gen,omitempty"` // generator label (caller-set)
	N      int     `json:"n"`
	D      int     `json:"d"`
	K      int     `json:"k"`
	Checks []Check `json:"checks"`
	Pass   bool    `json:"pass"`

	// PuntRate and WorstSplit ride along for the gauges even though the
	// table carries them too.
	PuntRate   float64 `json:"punt_rate"`
	WorstSplit float64 `json:"worst_split"`
}

// treeWalk accumulates the per-node re-measurements.
type treeWalk struct {
	f            *septree.Frozen
	sys          *nbrsys.System
	delta        float64
	minIota      int
	k, d         int
	internal     int
	punted       int
	worstSplit   float64
	worstIota    float64 // max ι / (k^{1/d}·m^{(d-1)/d}) over audited nodes
	worstIotaM   int
	worstIotaRaw int
	stored       int
}

// Audit re-measures the invariants on f, the structure built over sys,
// walking the same node arrays the queries descend and probing them with
// the given queries (their answers are discarded; their traversal costs
// are the Theorem 3.1 sample). Queries may be drawn from any
// distribution the caller wants audited — stored points, fresh points,
// or a mix.
func Audit(f *septree.Frozen, sys *nbrsys.System, queries [][]float64, cfg Config) (*Report, error) {
	if f == nil || sys == nil {
		return nil, errors.New("audit: nil structure or neighborhood system")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("audit: Config.K must be ≥ 1, got %d", cfg.K)
	}
	n := sys.Len()
	if n == 0 {
		return nil, errors.New("audit: empty neighborhood system")
	}
	d := len(sys.Centers[0])
	delta := cfg.Delta
	if delta <= 0 {
		delta = separator.DefaultDelta(d)
	}
	w := &treeWalk{f: f, sys: sys, delta: delta, minIota: cfg.minIota(), k: cfg.K, d: d}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	w.walk(0, idx)

	rep := &Report{N: n, D: d, K: cfg.K}
	logn := math.Log2(float64(n))
	if logn < 1 {
		logn = 1
	}

	// Theorem 2.1: worst observed normalized intersection number.
	rep.add(Check{
		Name:     "iota",
		Theorem:  "Thm 2.1",
		Observed: w.worstIota,
		Bound:    cfg.iotaC(),
		Detail: fmt.Sprintf("worst ι=%d at m=%d (ι ≤ C·k^{1/d}·m^{(d-1)/d}, C=%.3g)",
			w.worstIotaRaw, w.worstIotaM, cfg.iotaC()),
	})

	// δ-split: worst non-punted center split must respect δ exactly
	// (re-running the build's own acceptance test).
	rep.add(Check{
		Name:     "split_balance",
		Theorem:  "Thm 2.1 (δ-split)",
		Observed: w.worstSplit,
		Bound:    delta,
		Detail:   fmt.Sprintf("worst max(side)/m over %d non-punted internal nodes", w.internal-w.punted),
	})
	rep.WorstSplit = w.worstSplit

	// Punting Lemma: depth stays logarithmic...
	rep.add(Check{
		Name:     "depth",
		Theorem:  "Punting Lemma",
		Observed: float64(f.Stats.Height),
		Bound:    2*logn + 2,
		Detail:   fmt.Sprintf("height %d vs 2·log₂n+2", f.Stats.Height),
	})
	// ...and punts stay rare enough not to dominate.
	punt := 0.0
	if w.internal > 0 {
		punt = float64(w.punted) / float64(w.internal)
	}
	rep.add(Check{
		Name:     "punt_rate",
		Theorem:  "Punting Lemma",
		Observed: punt,
		Bound:    cfg.puntMax(),
		Detail:   fmt.Sprintf("%d punts / %d internal nodes", w.punted, w.internal),
	})
	rep.PuntRate = punt

	// Lemma 6.1: linear space despite crossing duplication.
	rep.add(Check{
		Name:     "space",
		Theorem:  "Lemma 6.1",
		Observed: float64(w.stored),
		Bound:    cfg.spaceC(d) * float64(n),
		Detail: fmt.Sprintf("Σ stored=%d over %d leaves (≤ C·n, C=%.3g, dimension-exponential)",
			w.stored, f.Stats.Leaves, cfg.spaceC(d)),
	})

	// Theorem 3.1: probe traversal costs.
	if len(queries) > 0 {
		var nodes, cands int64
		buf := make([]int, 0, 64)
		for _, q := range queries {
			var nv, sc int
			buf, nv, sc = f.Covering(q, buf[:0])
			nodes += int64(nv)
			cands += int64(sc)
		}
		meanNodes := float64(nodes) / float64(len(queries))
		meanCands := float64(cands) / float64(len(queries))
		rep.add(Check{
			Name:     "query_nodes",
			Theorem:  "Thm 3.1",
			Observed: meanNodes,
			Bound:    cfg.nodesC() * (logn + 1),
			Detail:   fmt.Sprintf("mean nodes over %d probes (≤ C·(log₂n+1))", len(queries)),
		})
		rep.add(Check{
			Name:     "query_cands",
			Theorem:  "Thm 3.1",
			Observed: meanCands,
			Bound:    cfg.candsC() * (float64(cfg.K) + logn),
			Detail:   fmt.Sprintf("mean leaf candidates over %d probes (≤ C·(k+log₂n))", len(queries)),
		})
	}

	rep.Pass = true
	for _, c := range rep.Checks {
		if !c.Pass {
			rep.Pass = false
		}
	}
	return rep, nil
}

func (r *Report) add(c Check) {
	if c.Bound > 0 {
		c.Ratio = c.Observed / c.Bound
	}
	c.Pass = c.Observed <= c.Bound
	r.Checks = append(r.Checks, c)
}

// walk re-measures node i, whose subset of the balls is idx.
func (w *treeWalk) walk(i int32, idx []int) {
	sep, left := w.f.Separator(i)
	if sep == nil {
		w.stored += len(w.f.LeafBalls(i))
		return
	}
	w.internal++
	punted := w.f.Punted(i)
	if punted {
		w.punted++
	}
	m := len(idx)
	var l, r []int
	crossing := 0
	inside := 0
	for _, j := range idx {
		c, rad := w.sys.Centers[j], w.sys.Radii[j]
		switch sep.ClassifyBall(c, rad) {
		case geom.Interior:
			l = append(l, j)
		case geom.Exterior:
			r = append(r, j)
		default:
			crossing++
			l = append(l, j)
			r = append(r, j)
		}
		if sep.Side(c) <= 0 {
			inside++
		}
	}
	if !punted && m > 0 {
		side := inside
		if m-inside > side {
			side = m - inside
		}
		if ratio := float64(side) / float64(m); ratio > w.worstSplit {
			w.worstSplit = ratio
		}
	}
	if m >= w.minIota && w.d > 0 {
		norm := math.Pow(float64(w.k), 1/float64(w.d)) * math.Pow(float64(m), float64(w.d-1)/float64(w.d))
		if norm > 0 {
			if v := float64(crossing) / norm; v > w.worstIota {
				w.worstIota, w.worstIotaM, w.worstIotaRaw = v, m, crossing
			}
		}
	}
	w.walk(left, l)
	w.walk(left+1, r)
}

// Publish exports the report as /metrics gauges, one series per check
// labeled by generator: sepdc_audit_<check>_ratio plus the summary
// sepdc_audit_pass.
func (r *Report) Publish() {
	gen := r.Gen
	if gen == "" {
		gen = "default"
	}
	for _, c := range r.Checks {
		obs.SetGauge(obs.GaugeKey{
			Name:       "sepdc_audit_" + c.Name + "_ratio",
			LabelName:  "gen",
			LabelValue: gen,
		}, "Observed/bound for the "+c.Theorem+" invariant (<1 passes).", c.Ratio)
	}
	pass := 0.0
	if r.Pass {
		pass = 1
	}
	obs.SetGauge(obs.GaugeKey{Name: "sepdc_audit_pass", LabelName: "gen", LabelValue: gen},
		"1 when every paper-invariant audit check passed.", pass)
}

// WriteTable renders the pass/fail table cmd/knn -audit prints.
// Write errors are propagated.
func (r *Report) WriteTable(w io.Writer) error {
	head := r.Gen
	if head != "" {
		head = " [" + head + "]"
	}
	if _, err := fmt.Fprintf(w, "paper-invariant audit%s: n=%d d=%d k=%d\n", head, r.N, r.D, r.K); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-14s %-18s %12s %12s %7s  %s\n",
		"CHECK", "THEOREM", "OBSERVED", "BOUND", "VERDICT", "DETAIL"); err != nil {
		return err
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.Pass {
			verdict = "FAIL"
		}
		if _, err := fmt.Fprintf(w, "%-14s %-18s %12.4g %12.4g %7s  %s\n",
			c.Name, c.Theorem, c.Observed, c.Bound, verdict, c.Detail); err != nil {
			return err
		}
	}
	overall := "PASS"
	if !r.Pass {
		overall = "FAIL"
	}
	_, err := fmt.Fprintf(w, "overall: %s\n", overall)
	return err
}
