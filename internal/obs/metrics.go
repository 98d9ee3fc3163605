package obs

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"nectar/internal/prof"
	"nectar/internal/sim"
)

// kind orders the entries that share (layer, name, scope): a counter, a
// gauge and a histogram registered under one key export as three
// entries, in this order.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

var kindNames = [...]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}

// metricKey identifies one metric: the layer that owns it, the metric
// name, a scope (node or link identity, e.g. "cab1", "host2",
// "fiber.a-b", or "total"), and its kind.
type metricKey struct {
	layer Layer
	name  string
	scope string
	kind  kind
}

// compare orders keys by (layer, name, scope, kind), the order of every
// Snapshot.
func (a *metricKey) compare(b *metricKey) int {
	if c := strings.Compare(string(a.layer), string(b.layer)); c != 0 {
		return c
	}
	if c := strings.Compare(a.name, b.name); c != 0 {
		return c
	}
	if c := strings.Compare(a.scope, b.scope); c != 0 {
		return c
	}
	return int(a.kind) - int(b.kind)
}

// Counter is a monotonically increasing per-registry counter. Methods
// are nil-tolerant and allocation-free.
type Counter struct{ v uint64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram accumulates virtual-time durations into the log2 buckets of
// prof.Hist, the repo's one histogram collector. Observe is
// allocation-free; percentiles are derived at snapshot time.
type Histogram struct{ h prof.Hist }

// Observe records one duration (negative durations clamp to zero).
func (h *Histogram) Observe(d sim.Duration) {
	if h != nil {
		h.h.Observe(d.Nanos())
	}
}

// HistStats is the exported summary of a Histogram.
type HistStats struct {
	Count uint64  `json:"count"`
	SumUS float64 `json:"sum_us"`
	MinUS float64 `json:"min_us"`
	P50US float64 `json:"p50_us"`
	P90US float64 `json:"p90_us"`
	P99US float64 `json:"p99_us"`
	MaxUS float64 `json:"max_us"`
}

// Stats summarizes the histogram: count, sum, min/max, and the p50, p90
// and p99 upper bounds at bucket resolution, in microseconds.
func (h *Histogram) Stats() *HistStats {
	st := h.h.Stats(1e3)
	return &HistStats{
		Count: st.Count,
		SumUS: st.Sum,
		MinUS: st.Min,
		P50US: st.P50,
		P90US: st.P90,
		P99US: st.P99,
		MaxUS: st.Max,
	}
}

// Registry holds all metrics registered against one kernel's Observer:
// the scalar metrics (counters, closure gauges, histograms) in one slice,
// and the dense gauge families that per-link hardware joins (family.go).
// Metrics registered under one key sum in the snapshot, exactly as the
// same key does across the registries of a sharded run. A Registry is not
// safe for concurrent use — like everything else in the sim, exactly one
// goroutine touches it at a time.
type Registry struct {
	scalars  []scalar
	sorted   bool // scalars are in key order; cleared by every registration
	families []family
}

// scalar is one registered counter, closure gauge or histogram; exactly
// the field its key's kind names is set.
type scalar struct {
	key metricKey
	c   *Counter
	fn  func() uint64
	h   *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(s scalar) {
	r.scalars = append(r.scalars, s)
	r.sorted = false
}

// Counter registers a new counter under (layer, name, scope). A nil
// registry returns a nil Counter, whose methods are no-ops.
func (r *Registry) Counter(layer Layer, name, scope string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.add(scalar{key: metricKey{layer, name, scope, kindCounter}, c: c})
	return c
}

// Gauge registers a pull-style gauge sampled at snapshot time. fn must be
// deterministic and order-independent (e.g. a sum over a map). Gauges
// that exist once per link rather than once per node join a GaugeFamily
// instead.
func (r *Registry) Gauge(layer Layer, name, scope string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	r.add(scalar{key: metricKey{layer, name, scope, kindGauge}, fn: fn})
}

// Histogram registers a new histogram under (layer, name, scope). A nil
// registry returns a nil Histogram, whose Observe is a no-op.
func (r *Registry) Histogram(layer Layer, name, scope string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{}
	r.add(scalar{key: metricKey{layer, name, scope, kindHistogram}, h: h})
	return h
}

// sortedScalars returns the scalars in key order, sorting them in place
// only if a registration came after the last sort.
func (r *Registry) sortedScalars() []scalar {
	if !r.sorted {
		slices.SortFunc(r.scalars, func(a, b scalar) int { return a.key.compare(&b.key) })
		r.sorted = true
	}
	return r.scalars
}

// Entry is one metric in a Snapshot.
type Entry struct {
	Layer string     `json:"layer"`
	Name  string     `json:"name"`
	Scope string     `json:"scope"`
	Kind  string     `json:"kind"` // "counter", "gauge", or "histogram"
	Value uint64     `json:"value"`
	Hist  *HistStats `json:"hist,omitempty"`
}

// Snapshot is a point-in-time export of a Registry, sorted by
// (layer, name, scope) so two identical runs serialize identically.
type Snapshot struct {
	AtUS    float64 `json:"at_us"` // virtual time of the snapshot
	Entries []Entry `json:"metrics"`
}

// Snapshot samples every counter, gauge, and histogram: the merge of
// MergeSnapshots over this one registry.
func (r *Registry) Snapshot(at sim.Time) *Snapshot { return MergeSnapshots(at, r) }

// Get returns the entry for (layer, name, scope), if present.
func (s *Snapshot) Get(layer Layer, name, scope string) (Entry, bool) {
	for _, e := range s.Entries {
		if e.Layer == string(layer) && e.Name == name && e.Scope == scope {
			return e, true
		}
	}
	return Entry{}, false
}

// Value returns the counter/gauge value for (layer, name, scope), 0 if
// absent.
func (s *Snapshot) Value(layer Layer, name, scope string) uint64 {
	e, _ := s.Get(layer, name, scope)
	return e.Value
}

// Sum adds the values of every entry with the given layer and name
// across all scopes (e.g. total mailbox puts across nodes).
func (s *Snapshot) Sum(layer Layer, name string) uint64 {
	var n uint64
	for _, e := range s.Entries {
		if e.Layer == string(layer) && e.Name == name {
			n += e.Value
		}
	}
	return n
}

// Equal reports whether two snapshots hold the same entries at the same
// virtual time: what comparing their JSON would report, without rendering
// it.
func (s *Snapshot) Equal(o *Snapshot) bool {
	if s.AtUS != o.AtUS || len(s.Entries) != len(o.Entries) {
		return false
	}
	for i := range s.Entries {
		a, b := &s.Entries[i], &o.Entries[i]
		if a.Layer != b.Layer || a.Name != b.Name || a.Scope != b.Scope || a.Kind != b.Kind || a.Value != b.Value {
			return false
		}
		if (a.Hist == nil) != (b.Hist == nil) || a.Hist != nil && *a.Hist != *b.Hist {
			return false
		}
	}
	return true
}

// JSON renders the snapshot as deterministic, indented JSON.
func (s *Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil { // only on unmarshalable types; Snapshot has none
		panic(err)
	}
	return b
}

// Table renders the snapshot as an aligned text table.
func (s *Snapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics @ %.3fus\n", s.AtUS)
	fmt.Fprintf(&b, "  %-9s %-22s %-12s %s\n", "layer", "metric", "scope", "value")
	for _, e := range s.Entries {
		if e.Hist != nil {
			fmt.Fprintf(&b, "  %-9s %-22s %-12s n=%d p50=%.1fus p90=%.1fus p99=%.1fus max=%.1fus\n",
				e.Layer, e.Name, e.Scope, e.Hist.Count, e.Hist.P50US, e.Hist.P90US, e.Hist.P99US, e.Hist.MaxUS)
			continue
		}
		fmt.Fprintf(&b, "  %-9s %-22s %-12s %d\n", e.Layer, e.Name, e.Scope, e.Value)
	}
	return b.String()
}
