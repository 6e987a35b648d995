package telemetry

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of counters, gauges and histograms.
// Lookup (get-or-create) takes a mutex and may allocate, so hotpath
// code resolves its metric pointers once at construction time and then
// records lock-free through the returned pointers.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string

	// sorted is the exporters' view: every metric with its help text,
	// per kind, sorted by name. It is rebuilt on the first read after a
	// metric is created or a help text set, and never modified once
	// published, so a scrape may walk it while streaming code creates
	// metrics lazily.
	sorted atomic.Pointer[families]
}

// metricKind indexes families; exporters render the kinds in this
// order.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
	numKinds
)

// kindTypes are the # TYPE words of the metric kinds.
var kindTypes = [numKinds]string{"counter", "gauge", "histogram"}

// family is one registered metric as the exporters read it: the
// pointer of its kind is set, the other two are nil.
type family struct {
	name, help string
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
}

// families holds a registry's metrics by kind, each list sorted by name.
type families [numKinds][]family

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		help:       map[string]string{},
	}
}

// SetHelp attaches a # HELP docstring to the named metric; exporters
// escape it per the exposition format, so any string is safe.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
	r.sorted.Store(nil)
}

// Help returns the metric's docstring ("" when unset).
func (r *Registry) Help(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.help[name]
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.sorted.Store(nil)
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.sorted.Store(nil)
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
		r.sorted.Store(nil)
	}
	return h
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string { return names(r.families()[counterKind]) }

// GaugeNames returns the registered gauge names, sorted.
func (r *Registry) GaugeNames() []string { return names(r.families()[gaugeKind]) }

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string { return names(r.families()[histogramKind]) }

// families returns the sorted exporter view, rebuilding it when a
// metric or help text was added since the last read. The result is
// shared and read-only.
func (r *Registry) families() *families {
	if f := r.sorted.Load(); f != nil {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.sorted.Load(); f != nil {
		return f
	}
	f := &families{
		counterKind:   sortedFamilies(r.counters, r.help, func(f *family, c *Counter) { f.counter = c }),
		gaugeKind:     sortedFamilies(r.gauges, r.help, func(f *family, g *Gauge) { f.gauge = g }),
		histogramKind: sortedFamilies(r.histograms, r.help, func(f *family, h *Histogram) { f.hist = h }),
	}
	r.sorted.Store(f)
	return f
}

// sortedFamilies lists one kind's metrics sorted by name (exports must
// be deterministic, so no raw map iteration escapes the registry).
func sortedFamilies[M any](m map[string]*M, help map[string]string, set func(*family, *M)) []family {
	out := make([]family, 0, len(m))
	//csecg:orderok families are sorted immediately below
	for name, metric := range m {
		f := family{name: name, help: help[name]}
		set(&f, metric)
		out = append(out, f)
	}
	slices.SortFunc(out, func(a, b family) int { return compareName(a, b.name) })
	return out
}

// names copies the family names, so callers own the result.
func names(fams []family) []string {
	out := make([]string, len(fams))
	for i := range fams {
		out[i] = fams[i].name
	}
	return out
}
