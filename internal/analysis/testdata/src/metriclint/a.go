// Package metriclinttest exercises metriclint against a local
// registry shaped like internal/telemetry's: named Registry type with
// Counter/Gauge/Histogram methods, WritePrometheus* exporters and a
// Label type. Detection is structural, so the stand-in works exactly
// like the real one.
package metriclinttest

import "io"

type Counter struct{ v int64 }

func (c *Counter) Inc() { c.v++ }

type Gauge struct{ v int64 }

func (g *Gauge) Set(v int64) { g.v = v }

type Histogram struct{ n int64 }

func (h *Histogram) Observe(v int64) { h.n++ }

type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

type Label struct {
	Key, Value string
}

func WritePrometheus(w io.Writer, r *Registry) error {
	return WritePrometheusLabeled(w, r)
}

func WritePrometheusLabeled(w io.Writer, r *Registry, labels ...Label) error {
	_, err := w.Write([]byte("# metrics\n"))
	return err
}

// Source binds a registry to the label set its samples carry, for
// AppendPrometheus.
type Source struct {
	Registry *Registry
	Labels   []Label
}

func AppendPrometheus(dst []byte, srcs []Source) []byte {
	return append(dst, "# metrics\n"...)
}

// export reaches WritePrometheus through one hop; handing a registry to
// it counts as exporting.
func export(w io.Writer, r *Registry) {
	_ = WritePrometheus(w, r)
}

// keep swallows a registry without exporting it — the analyzer cannot
// prove anything about it, so handing a registry here counts as an
// escape, not a leak.
var kept *Registry

func keep(r *Registry) { kept = r }
