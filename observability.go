package sepdc

import (
	"encoding/json"
	"fmt"
	"net/http"

	"sepdc/internal/cpufeat"
	"sepdc/internal/obs"
	"sepdc/internal/obs/audit"
	"sepdc/internal/vec"
)

// KernelInfo reports the distance-kernel dispatch configuration this
// process resolved at startup: the active tier ("asm", "unrolled", or
// "generic" — KNN_KERNELS overrides, otherwise the best the build and
// CPU support) and the detected CPU vector features ("none" when the
// build or architecture has no kernel assembly). Serving binaries log
// it at startup and publish it on /statsz (info.kernel_tier,
// info.cpu_features) so production can confirm the assembly kernels
// are actually engaged.
func KernelInfo() (tier, cpuFeatures string) {
	return vec.ActiveTier().String(), cpufeat.Features()
}

// This file is the public face of the serving-grade observability layer:
// a ServeObserver that a Batcher streams one wide event per query into,
// a MetricsHandler exposing everything as Prometheus text + JSON, and
// the paper-invariant Audit entry point. The build-side story (Options.
// Observe, Stats.Report, Graph.WriteTrace) is unchanged; this layer
// covers the serving side the batch engine owns.

// ServeObserverConfig tunes a ServeObserver. The zero value is the
// serving default: 1 in 16 queries fully timed, 4096 events retained
// per serving strand.
type ServeObserverConfig struct {
	// SampleEvery times 1 in SampleEvery queries (rounded up to a power
	// of two; 1 times every query). 0 selects 16. Untimed queries cost
	// one branch.
	SampleEvery int
	// PerStrand is each strand's event-ring capacity; newest traffic
	// overwrites oldest. 0 selects 4096. The window quantiles, slowest
	// tail and exemplars are computed over what the rings retain.
	PerStrand int
}

// ServeObserver is a long-lived serving telemetry sink shared by any
// number of Batchers serving one after another: one fixed-size wide
// event per served query (batch and query ids, destination leaf,
// descent depth, candidates scanned, balls reported, phase-split
// latency for timed queries, trace ids) in a bounded per-strand ring,
// plus exact query counts and phase-split histograms folded in as each
// 16-query chunk is published. Emission costs the batch hot path one
// ring write per query and one lock per chunk, with zero steady-state
// allocations. Read it with Snapshot (counts, histograms, and the
// window quantiles, slowest tail and exemplars derived from the rings),
// Events (the retained events, non-consuming) or Drain (consuming, with
// dropped-event accounting) — or over HTTP via MetricsHandler.
type ServeObserver struct {
	name string
	j    *obs.Journal
}

// NewServeObserver creates an observer and registers it under name in
// the /metrics, /statsz and /journal exposition (series
// sepdc_serve_<name>_*). Registration is deterministic: the first
// observer created under a name owns the slot, and a second
// NewServeObserver with the same name returns an observer sharing the
// incumbent's rings (the requested config is ignored) instead of
// silently dropping the live one's telemetry.
func NewServeObserver(name string, cfg ServeObserverConfig) *ServeObserver {
	if j := obs.LookupJournal(name); j != nil {
		return &ServeObserver{name: name, j: j}
	}
	j := obs.NewJournal(obs.JournalConfig{SampleEvery: cfg.SampleEvery, PerStrand: cfg.PerStrand}, 0)
	obs.RegisterJournal(name, j)
	return &ServeObserver{name: name, j: j}
}

// Name returns the observer's registered exposition name.
func (o *ServeObserver) Name() string { return o.name }

// Snapshot returns the observer's current telemetry: exact served
// counts and phase-split latency/shape histograms over the tick-sampled
// queries, plus the rolling-window quantiles, slowest queries and
// latency exemplars derived from the retained events. Safe to call
// while Batchers serve. The result marshals directly to JSON (the same
// document /statsz serves).
func (o *ServeObserver) Snapshot() *obs.ServeSnapshot {
	if o == nil {
		return nil
	}
	return o.j.ServeSnapshot()
}

// Events returns the currently retained events without consuming them,
// ordered by (batch, query). Safe to call while Batchers serve.
func (o *ServeObserver) Events() obs.JournalDrain {
	if o == nil {
		return obs.JournalDrain{}
	}
	return o.j.Snapshot()
}

// Drain returns every retained event not returned by a previous Drain;
// events overwritten between drains are counted in the result's Dropped
// field. Safe to call while Batchers serve.
func (o *ServeObserver) Drain() obs.JournalDrain {
	if o == nil {
		return obs.JournalDrain{}
	}
	return o.j.Drain()
}

// Close unregisters the observer from the exposition — but only if it
// still owns its name's slot, so a stale handle's deferred Close never
// drops a newer registration. Attached Batchers keep publishing into
// the closed rings harmlessly; detach them with Observe(nil) first if
// emission should stop.
func (o *ServeObserver) Close() {
	if o != nil {
		obs.UnregisterJournal(o.name, o.j)
	}
}

// Observe attaches (or with nil detaches) a serving telemetry observer.
// Per-query overhead: one branch and a plain event store when a query
// is not timed, three monotonic clock reads when it is, and one lock per
// 16-query chunk; answers are bit-identical either way, and the
// zero-allocation steady state is preserved. Not safe to call
// concurrently with Run.
func (bt *Batcher) Observe(o *ServeObserver) {
	if o == nil {
		bt.b.Observe(nil)
		return
	}
	bt.b.Observe(o.j)
}

// MetricsHandler returns the observability endpoints:
//
//	/metrics — Prometheus text exposition (format 0.0.4): process-wide
//	           sepdc counters, worker-pool gauges, every registered
//	           ServeObserver's histograms and window quantiles, and the
//	           paper-invariant audit gauges.
//	/statsz  — the same telemetry as JSON, including each observer's
//	           slowest retained queries as journal events.
//	/journal — registered ServeObservers' events as JSON Lines (?name=
//	           filters, ?drain=1 consumes).
//	/traces  — registered TraceLogs' request traces as JSON Lines.
//
// Mount it wherever the host process serves debug HTTP; cmd/knn mounts
// it on -debug-addr.
func MetricsHandler() http.Handler { return obs.Handler() }

// AuditConfig tunes the paper-invariant audit; see the fields of
// audit.Config for the bound constants. The zero value audits against
// the repo's default empirical ceilings.
type AuditConfig = audit.Config

// AuditReport is the outcome of QueryStructure.Audit: one Check per
// invariant (Theorem 2.1 ι(S) and δ-split, the Punting-Lemma depth and
// punt rate, Lemma 6.1 space, Theorem 3.1 probe costs), each scored
// observed/bound with a pass verdict. Publish exports it as /metrics
// gauges; WriteTable renders the cmd/knn -audit table.
type AuditReport = audit.Report

// Audit re-measures the paper's invariants on the built structure:
// it walks the served structure's nodes, re-deriving every node's subset
// from scratch by classifying the balls against each stored separator
// (the classification the build used), and probes the structure with
// the given queries to sample Theorem 3.1's cost bound. Probe queries must match the structure's dimension; pass nil to
// skip the query-cost checks.
func (qs *QueryStructure) Audit(probes [][]float64, cfg AuditConfig) (*AuditReport, error) {
	for i, q := range probes {
		if err := qs.validateQuery(q); err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
	}
	if cfg.K == 0 {
		cfg.K = qs.k
	}
	return audit.Audit(qs.frozen, qs.sys, probes, cfg)
}

// Snapshot returns the build statistics as machine-readable JSON —
// the counterpart of the human-oriented Report.WriteText rendering.
func (s *Stats) Snapshot() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
