// Package slo evaluates declarative service-level objectives over the
// sepdc serving telemetry with multi-window burn rates, the alerting
// shape that survives production: a fast window (minutes) catches an
// outage quickly, a slow window (an hour) confirms it is not a blip,
// and an alert fires only when BOTH burn faster than the error budget
// allows. Burn rate is (observed bad fraction) / (budgeted bad
// fraction): burn 1.0 spends exactly the SLO's error budget over the
// period, burn 14.4 spends a 30-day budget in ~2 days.
//
// The evaluator is deliberately passive: it reads cumulative (total,
// bad) counters through a Source func and publishes sepdc_slo_* gauges
// through obs.SetGauge. Sources over engine counters that are not
// concurrency-safe (Batcher.Stats between Runs) stay correct because
// the caller controls when Evaluate runs; sources over race-safe
// telemetry (journal snapshots, AtomicHist) can instead drive a background
// Start loop. When an objective's trip condition transitions to firing
// the evaluator invokes the OnTrip hook — the flight recorder's
// actuation seam.
package slo

import (
	"fmt"
	"math"
	"sync"
	"time"

	"sepdc/internal/obs"
)

// Source reports cumulative totals since process start: events observed
// and events that violated the objective (too slow, errored). Deltas
// over time windows are the evaluator's job; sources just count.
type Source func() (total, bad int64)

// HistSource adapts a latency histogram getter into a Source: total is
// the histogram's count, bad is every event in buckets whose upper
// bound exceeds thresholdNs. The obs.Hist log2 bucketing makes the
// effective threshold the largest bucket bound <= thresholdNs — pick
// thresholds at powers of two (or accept the round-down) when exact
// cutoffs matter.
func HistSource(h func() obs.Hist, thresholdNs int64) Source {
	return func() (int64, int64) {
		hist := h()
		var bad int64
		for _, b := range hist.Buckets {
			if b.Le > thresholdNs {
				bad += b.Count
			}
		}
		return hist.Count, bad
	}
}

// Objective is one declarative SLO. The zero value of each tunable
// selects the noted default; Name and Source are required.
type Objective struct {
	// Name labels the objective's gauge series (sepdc_slo_*{objective=Name}).
	Name string
	// Source supplies the cumulative (total, bad) counters.
	Source Source
	// Target is the success-ratio objective, e.g. 0.999. Default 0.99.
	Target float64
	// FastWindow/SlowWindow are the two burn-rate windows.
	// Defaults: 5m / 1h.
	FastWindow, SlowWindow time.Duration
	// FastBurn/SlowBurn are the trip thresholds per window. The alert
	// fires when BOTH windows exceed their threshold. Defaults: 14.4 / 6
	// (the classic page-worthy multi-window pair).
	FastBurn, SlowBurn float64
}

func (o Objective) target() float64 {
	if o.Target <= 0 || o.Target >= 1 {
		return 0.99
	}
	return o.Target
}
func (o Objective) fastWindow() time.Duration {
	if o.FastWindow <= 0 {
		return 5 * time.Minute
	}
	return o.FastWindow
}
func (o Objective) slowWindow() time.Duration {
	if o.SlowWindow <= 0 {
		return time.Hour
	}
	return o.SlowWindow
}
func (o Objective) fastBurn() float64 {
	if o.FastBurn <= 0 {
		return 14.4
	}
	return o.FastBurn
}
func (o Objective) slowBurn() float64 {
	if o.SlowBurn <= 0 {
		return 6
	}
	return o.SlowBurn
}

// Status is one objective's most recent evaluation.
type Status struct {
	Name     string  `json:"name"`
	Target   float64 `json:"target"`
	Total    int64   `json:"total"`
	Bad      int64   `json:"bad"`
	FastBurn float64 `json:"fast_burn"` // observed fast-window burn rate
	SlowBurn float64 `json:"slow_burn"` // observed slow-window burn rate
	Tripped  bool    `json:"tripped"`
}

// sample is one cumulative counter reading.
type sample struct {
	at         time.Time
	total, bad int64
}

type objState struct {
	obj     Objective
	history []sample // pruned to the slow window
	tripped bool
	status  Status
}

// Evaluator evaluates a set of objectives. Construct with New, then
// call Evaluate on your own cadence (or Start a background loop — only
// safe when every Source is itself concurrency-safe).
type Evaluator struct {
	mu     sync.Mutex
	objs   []*objState
	now    func() time.Time // injectable clock for tests
	onTrip func(Status)

	stop chan struct{}
	done chan struct{}
}

// New returns an evaluator over the given objectives. onTrip (optional)
// fires once per objective each time its trip condition transitions
// from quiet to firing — the flight-recorder actuation hook. It is
// invoked synchronously from Evaluate, without the evaluator lock held.
func New(objectives []Objective, onTrip func(Status)) (*Evaluator, error) {
	e := &Evaluator{now: time.Now, onTrip: onTrip}
	seen := map[string]bool{}
	for _, o := range objectives {
		if o.Name == "" || o.Source == nil {
			return nil, fmt.Errorf("slo: objective needs a name and a source: %+v", o)
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %q", o.Name)
		}
		seen[o.Name] = true
		e.objs = append(e.objs, &objState{obj: o})
	}
	return e, nil
}

// SetClock replaces the evaluator's time source (tests drive synthetic
// windows). Not safe concurrently with Evaluate.
func (e *Evaluator) SetClock(now func() time.Time) { e.now = now }

// Evaluate reads every objective's source once, updates the burn-rate
// windows, publishes the sepdc_slo_* gauges, and fires the trip hook
// for any objective whose condition just started firing. Returns the
// per-objective statuses in declaration order.
func (e *Evaluator) Evaluate() []Status {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	now := e.now()
	var fired []Status
	out := make([]Status, 0, len(e.objs))
	for _, st := range e.objs {
		o := st.obj
		total, bad := o.Source()
		st.history = append(st.history, sample{at: now, total: total, bad: bad})
		st.history = prune(st.history, now.Add(-o.slowWindow()))

		fast := burnOver(st.history, now.Add(-o.fastWindow()), o.target())
		slow := burnOver(st.history, now.Add(-o.slowWindow()), o.target())
		firing := fast > o.fastBurn() && slow > o.slowBurn()
		justTripped := firing && !st.tripped
		st.tripped = firing

		s := Status{
			Name: o.Name, Target: o.target(), Total: total, Bad: bad,
			FastBurn: fast, SlowBurn: slow, Tripped: firing,
		}
		st.status = s
		out = append(out, s)
		if justTripped {
			fired = append(fired, s)
		}

		lbl := func(name, help string, v float64) {
			obs.SetGauge(obs.GaugeKey{Name: name, LabelName: "objective", LabelValue: o.Name}, help, v)
		}
		lbl("sepdc_slo_burn_fast", "Fast-window SLO burn rate (bad fraction over budgeted fraction).", round(fast))
		lbl("sepdc_slo_burn_slow", "Slow-window SLO burn rate (bad fraction over budgeted fraction).", round(slow))
		lbl("sepdc_slo_tripped", "1 while both burn-rate windows exceed their thresholds.", b2f(firing))
	}
	e.mu.Unlock()
	if e.onTrip != nil {
		for _, s := range fired {
			e.onTrip(s)
		}
	}
	return out
}

// Statuses returns the most recent evaluation results without
// re-reading the sources.
func (e *Evaluator) Statuses() []Status {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Status, 0, len(e.objs))
	for _, st := range e.objs {
		out = append(out, st.status)
	}
	return out
}

// Start launches a background Evaluate loop at the given interval
// (<=0 selects 10s). ONLY safe when every objective's Source is itself
// safe to call concurrently with the traffic it observes (journal
// snapshots are; Batcher.Stats between Runs is not — drive that with
// manual Evaluate calls instead). Stop with Close.
func (e *Evaluator) Start(interval time.Duration) *Evaluator {
	if e == nil {
		return nil
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	e.mu.Lock()
	if e.stop != nil {
		e.mu.Unlock()
		return e
	}
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	stop, done := e.stop, e.done
	e.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				e.Evaluate()
			}
		}
	}()
	return e
}

// Close stops the background loop and waits for it. Safe without
// Start, or twice.
func (e *Evaluator) Close() {
	if e == nil {
		return
	}
	e.mu.Lock()
	stop, done := e.stop, e.done
	e.stop, e.done = nil, nil
	e.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// prune drops samples older than cutoff but keeps one sample at or
// before it, so window deltas anchored at the cutoff stay exact.
func prune(h []sample, cutoff time.Time) []sample {
	keep := 0
	for i, s := range h {
		if s.at.After(cutoff) {
			break
		}
		keep = i
	}
	return h[keep:]
}

// burnOver computes the burn rate over the window starting at cutoff:
// the bad fraction of events observed inside the window, divided by the
// objective's budgeted bad fraction (1 - target). Windows with no
// traffic burn 0.
func burnOver(h []sample, cutoff time.Time, target float64) float64 {
	if len(h) == 0 {
		return 0
	}
	// Anchor: the latest sample at or before the cutoff, else the oldest.
	anchor := h[0]
	for _, s := range h {
		if s.at.After(cutoff) {
			break
		}
		anchor = s
	}
	last := h[len(h)-1]
	total := last.total - anchor.total
	bad := last.bad - anchor.bad
	if total <= 0 || bad <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - target)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// round trims burn-rate gauges to 3 decimals so expositions diff cleanly.
func round(v float64) float64 { return math.Round(v*1000) / 1000 }
