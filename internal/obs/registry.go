package obs

import (
	"sort"
	"sync"
)

// The registry is the glue between long-lived telemetry producers (serve
// journals, trace sinks, the paper-invariant auditor) and the /metrics
// handler: a producer registers once under a stable name, the handler
// walks the registry at scrape time. Everything here is scrape-path only — nothing
// on a query hot path touches the registry.

// GaugeKey identifies one gauge series: metric name + one optional
// label (enough for the audit gauges, which are keyed by generator).
type GaugeKey struct {
	Name       string
	LabelName  string
	LabelValue string
}

type registry struct {
	mu       sync.Mutex
	journals map[string]*Journal
	traces   map[string]*TraceSink
	gauges   map[GaugeKey]float64
	help     map[string]string
	info     map[string]string
}

var reg = registry{
	journals: map[string]*Journal{},
	traces:   map[string]*TraceSink{},
	gauges:   map[GaugeKey]float64{},
	help:     map[string]string{},
	info:     map[string]string{},
}

// SetInfo publishes one process-configuration string (facts with no
// numeric reading: the kernel dispatch tier, the CPU feature set) on
// /statsz's info map, so production can confirm what a process actually
// selected at startup. Re-setting a key replaces its value.
func SetInfo(key, value string) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.info[key] = value
}

// infoSnapshot copies the info map for the scrape path; nil when empty
// so /statsz omits the section entirely.
func infoSnapshot() map[string]string {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if len(reg.info) == 0 {
		return nil
	}
	out := make(map[string]string, len(reg.info))
	for k, v := range reg.info {
		out[k] = v
	}
	return out
}

// RegisterJournal publishes a serving journal under name: /metrics and
// /statsz export its ServeSnapshot as the sepdc_serve_<name>_* series,
// and /journal drains its events. A nil journal unregisters.
func RegisterJournal(name string, j *Journal) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if j == nil {
		delete(reg.journals, name)
		return
	}
	reg.journals[name] = j
}

// UnregisterJournal removes name's registration only when j still owns
// the slot. A stale handle's deferred close therefore never drops a
// newer journal registered under the same name.
func UnregisterJournal(name string, j *Journal) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if cur, ok := reg.journals[name]; ok && cur == j {
		delete(reg.journals, name)
	}
}

// LookupJournal returns the journal registered under name, or nil.
func LookupJournal(name string) *Journal {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.journals[name]
}

// RegisterTraces publishes a request-trace sink under name; the /traces
// endpoint reads it per request. A nil sink unregisters.
func RegisterTraces(name string, t *TraceSink) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if t == nil {
		delete(reg.traces, name)
		return
	}
	reg.traces[name] = t
}

// UnregisterTraces removes name's registration only when t still owns
// the slot — the trace-sink counterpart of UnregisterJournal.
func UnregisterTraces(name string, t *TraceSink) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if cur, ok := reg.traces[name]; ok && cur == t {
		delete(reg.traces, name)
	}
}

// LookupTraces returns the trace sink registered under name, or nil.
func LookupTraces(name string) *TraceSink {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.traces[name]
}

// tracesList returns the registered trace sinks, names sorted.
func tracesList() ([]string, map[string]*TraceSink) {
	reg.mu.Lock()
	out := make(map[string]*TraceSink, len(reg.traces))
	names := make([]string, 0, len(reg.traces))
	for k, v := range reg.traces {
		out[k] = v
		names = append(names, k)
	}
	reg.mu.Unlock()
	sort.Strings(names)
	return names, out
}

// journalList returns the registered journals, names sorted.
func journalList() ([]string, map[string]*Journal) {
	reg.mu.Lock()
	out := make(map[string]*Journal, len(reg.journals))
	names := make([]string, 0, len(reg.journals))
	for k, v := range reg.journals {
		out[k] = v
		names = append(names, k)
	}
	reg.mu.Unlock()
	sort.Strings(names)
	return names, out
}

// SetGauge publishes (or updates) one gauge series. help is recorded
// per metric name on first use.
func SetGauge(k GaugeKey, help string, v float64) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.gauges[k] = v
	if _, ok := reg.help[k.Name]; !ok {
		reg.help[k.Name] = help
	}
}

// GaugeValue is one published gauge series and its current value.
type GaugeValue struct {
	Name       string  `json:"name"`
	LabelName  string  `json:"label_name,omitempty"`
	LabelValue string  `json:"label_value,omitempty"`
	Value      float64 `json:"value"`
}

// Gauges returns every registered gauge series, sorted by (name, label
// value) — the flight recorder folds this into a bundle's metadata, and
// tests assert published series through it.
func Gauges() []GaugeValue {
	names, byName, _ := gaugeSnapshot()
	var out []GaugeValue
	for _, name := range names {
		for _, p := range byName[name] {
			out = append(out, GaugeValue{
				Name: name, LabelName: p.key.LabelName,
				LabelValue: p.key.LabelValue, Value: p.val,
			})
		}
	}
	return out
}

// serveSnapshots returns name → snapshot for every registered journal,
// names sorted for deterministic exposition order.
func serveSnapshots() ([]string, map[string]*ServeSnapshot) {
	names, journals := journalList()
	out := make(map[string]*ServeSnapshot, len(journals))
	for name, j := range journals {
		out[name] = j.ServeSnapshot()
	}
	return names, out
}

// gaugeSnapshot returns the registered gauges grouped by metric name,
// names sorted, series within a name sorted by label value.
func gaugeSnapshot() ([]string, map[string][]gaugePoint, map[string]string) {
	reg.mu.Lock()
	byName := map[string][]gaugePoint{}
	for k, v := range reg.gauges {
		byName[k.Name] = append(byName[k.Name], gaugePoint{k, v})
	}
	help := make(map[string]string, len(reg.help))
	for k, v := range reg.help {
		help[k] = v
	}
	reg.mu.Unlock()
	names := make([]string, 0, len(byName))
	for name, pts := range byName {
		names = append(names, name)
		sort.Slice(pts, func(i, j int) bool {
			if pts[i].key.LabelName != pts[j].key.LabelName {
				return pts[i].key.LabelName < pts[j].key.LabelName
			}
			return pts[i].key.LabelValue < pts[j].key.LabelValue
		})
		byName[name] = pts
	}
	sort.Strings(names)
	return names, byName, help
}

type gaugePoint struct {
	key GaugeKey
	val float64
}
