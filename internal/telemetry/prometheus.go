package telemetry

import (
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Label is one Prometheus label pair attached to every sample of a
// labeled export (WritePrometheusLabeled). Values are escaped per the
// text exposition format at write time, so any string is safe.
type Label struct {
	Key, Value string
}

// Source is one labeled input of a Prometheus exposition: a registry,
// a span tracer's per-stage histograms, or both, and the label set that
// every one of their samples carries.
type Source struct {
	// Registry contributes its counters, gauges and histograms (nil:
	// none).
	Registry *Registry
	// Spans contributes the csecg_window_stage_seconds histograms (nil:
	// none).
	Spans *CausalTracer
	// Labels are attached to every sample, in order.
	Labels []Label
}

// WritePrometheus dumps the registry in the Prometheus text exposition
// format: counters and gauges as single samples, histograms as
// cumulative le-bucketed series with _sum and _count. Output is sorted
// by metric name, so a dump is reproducible for a given session.
//
//csecg:host export-time formatting
func WritePrometheus(w io.Writer, r *Registry) error {
	return WritePrometheusLabeled(w, r)
}

// WritePrometheusLabeled is WritePrometheus with a fixed label set
// attached to every sample. Label values and # HELP text are escaped
// per the exposition format.
//
//csecg:host export-time formatting
func WritePrometheusLabeled(w io.Writer, r *Registry, labels ...Label) error {
	return writeSource(w, Source{Registry: r, Labels: labels})
}

// writeSource renders one source and writes it in a single call.
//
//csecg:host export-time formatting
func writeSource(w io.Writer, src Source) error {
	_, err := w.Write(AppendPrometheus(nil, []Source{src}))
	return err
}

// AppendPrometheus appends the Prometheus text exposition of srcs to
// dst and returns the extended buffer. The document is family-major:
// counters, then gauges, then histograms, each kind in name order over
// the union of the sources' registries, then the per-stage span
// histograms. Every family gets one # HELP (the first source's
// non-empty help text) and one # TYPE line, followed by the samples of
// every source that has it, in srcs order. A gauge's _max samples
// follow all of its value samples, so both names stay contiguous.
//
// Numbers, bounds, trace IDs and escaped labels are appended straight
// into dst, so rendering warmed sources into a buffer with room
// allocates nothing. A single-source document is byte-identical to the
// per-registry exporters'.
//
//csecg:host export-time formatting
func AppendPrometheus(dst []byte, srcs []Source) []byte {
	for k := counterKind; k < numKinds; k++ {
		name, ok := nextFamily(srcs, k, "", true)
		for ok {
			dst = appendFamily(dst, srcs, k, name)
			name, ok = nextFamily(srcs, k, name, false)
		}
	}
	return appendStageSeconds(dst, srcs)
}

// kindFamilies returns the source's sorted families of kind k.
func (s *Source) kindFamilies(k metricKind) []family {
	if s.Registry == nil {
		return nil
	}
	return s.Registry.families()[k]
}

// lookup returns the source's kind-k family called name, or nil.
func (s *Source) lookup(k metricKind, name string) *family {
	fams := s.kindFamilies(k)
	if i, ok := slices.BinarySearchFunc(fams, name, compareName); ok {
		return &fams[i]
	}
	return nil
}

func compareName(f family, name string) int { return strings.Compare(f.name, name) }

// nextFamily returns the smallest kind-k name in any source's registry
// that sorts after prev (the smallest of all when first).
func nextFamily(srcs []Source, k metricKind, prev string, first bool) (string, bool) {
	next, ok := "", false
	for i := range srcs {
		fams := srcs[i].kindFamilies(k)
		j := 0
		if !first {
			var found bool
			if j, found = slices.BinarySearchFunc(fams, prev, compareName); found {
				j++
			}
		}
		if j < len(fams) && (!ok || fams[j].name < next) {
			next, ok = fams[j].name, true
		}
	}
	return next, ok
}

// appendFamily appends one registry family: its header, then every
// source's samples.
//
//csecg:host export-time formatting
func appendFamily(dst []byte, srcs []Source, k metricKind, name string) []byte {
	for i := range srcs {
		if f := srcs[i].lookup(k, name); f != nil && f.help != "" {
			dst = append(dst, "# HELP "...)
			dst = append(dst, name...)
			dst = append(dst, ' ')
			dst = appendEscaped(dst, f.help, false)
			dst = append(dst, '\n')
			break
		}
	}
	dst = append(dst, "# TYPE "...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = append(dst, kindTypes[k]...)
	dst = append(dst, '\n')
	for i := range srcs {
		f := srcs[i].lookup(k, name)
		if f == nil {
			continue
		}
		ls := srcs[i].Labels
		switch k {
		case counterKind:
			dst = appendSeries(dst, name, "", ls, "", "")
			dst = appendInt(dst, f.counter.Load())
		case gaugeKind:
			dst = appendSeries(dst, name, "", ls, "", "")
			dst = appendInt(dst, f.gauge.Load())
		case histogramKind:
			dst = appendHistogram(dst, name, ls, "", f.hist, nil)
		}
	}
	if k == gaugeKind {
		for i := range srcs {
			if f := srcs[i].lookup(k, name); f != nil {
				dst = appendSeries(dst, name, "_max", srcs[i].Labels, "", "")
				dst = appendInt(dst, f.gauge.Max())
			}
		}
	}
	return dst
}

// stageSecondsHeader opens the csecg_window_stage_seconds family.
const stageSecondsHeader = "# HELP " + StageSecondsMetric +
	" Per-stage contribution to window decode latency, with trace exemplars\n" +
	"# TYPE " + StageSecondsMetric + " histogram\n"

// appendStageSeconds appends the per-stage span histograms of every
// source with a tracer: one header, then each source's non-empty
// stages in pipeline order.
//
//csecg:host export-time formatting
func appendStageSeconds(dst []byte, srcs []Source) []byte {
	header := false
	for i := range srcs {
		c := srcs[i].Spans
		if c == nil {
			continue
		}
		if !header {
			dst = append(dst, stageSecondsHeader...)
			header = true
		}
		for idx, stage := range c.stageNames {
			dst = appendHistogram(dst, StageSecondsMetric, srcs[i].Labels, stage, c.stageHists[idx], c.exemplars[idx])
		}
	}
	return dst
}

// leInt and leSeconds are the rendered upper bounds of the log2
// buckets: integer observations, and nanosecond observations in
// seconds.
var leInt, leSeconds = bucketBounds()

func bucketBounds() (ints, secs [NumBuckets]string) {
	for b := range ints {
		ints[b] = strconv.FormatInt(BucketHigh(b), 10)
		secs[b] = string(appendSeconds(nil, BucketHigh(b)))
	}
	return ints, secs
}

// appendHistogram appends one histogram's cumulative le buckets, _sum
// and _count. Every bucket is loaded once, and +Inf and _count are the
// loaded buckets' total, so a scrape racing Observe (which adds to the
// bucket before the count) still emits monotone buckets ending in
// +Inf == _count.
//
// A non-nil ex selects the span-stage form: a stage label, le bounds
// and _sum in seconds, each bucket's exemplar, and no lines at all for
// a histogram that has no observations yet.
//
//csecg:host export-time formatting
func appendHistogram(dst []byte, name string, labels []Label, stage string, h *Histogram, ex *[NumBuckets]exemplar) []byte {
	var counts [NumBuckets]int64
	var total int64
	top := 0
	for b := range counts {
		counts[b] = h.buckets[b].Load()
		total += counts[b]
		if counts[b] > 0 {
			top = b
		}
	}
	le := &leInt
	if ex != nil {
		if total == 0 {
			return dst
		}
		le = &leSeconds
	}
	var cum int64
	for b := 0; b <= top; b++ {
		cum += counts[b]
		dst = appendSeries(dst, name, "_bucket", labels, stage, le[b])
		dst = strconv.AppendInt(dst, cum, 10)
		if ex != nil {
			if tid := ex[b].trace.Load(); tid != 0 {
				dst = append(dst, ` # {trace_id="`...)
				dst = appendTraceID(dst, tid)
				dst = append(dst, `"} `...)
				dst = appendSeconds(dst, ex[b].valNs.Load())
			}
		}
		dst = append(dst, '\n')
	}
	dst = appendSeries(dst, name, "_bucket", labels, stage, "+Inf")
	dst = appendInt(dst, total)
	dst = appendSeries(dst, name, "_sum", labels, stage, "")
	if ex != nil {
		dst = appendSeconds(dst, h.Sum())
		dst = append(dst, '\n')
	} else {
		dst = appendInt(dst, h.Sum())
	}
	dst = appendSeries(dst, name, "_count", labels, stage, "")
	return appendInt(dst, total)
}

// appendSeries starts a sample line: the metric name and suffix, the
// label block — labels, then stage (escaped) and le (pre-rendered) when
// non-empty — and the space before the value.
func appendSeries(dst []byte, name, suffix string, labels []Label, stage, le string) []byte {
	dst = append(dst, name...)
	dst = append(dst, suffix...)
	if len(labels) == 0 && stage == "" && le == "" {
		return append(dst, ' ')
	}
	dst = append(dst, '{')
	for i, l := range labels {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendLabel(dst, l.Key, l.Value)
	}
	if stage != "" {
		if len(labels) > 0 {
			dst = append(dst, ',')
		}
		dst = appendLabel(dst, "stage", stage)
	}
	if le != "" {
		if len(labels) > 0 || stage != "" {
			dst = append(dst, ',')
		}
		dst = append(dst, `le="`...)
		dst = append(dst, le...)
		dst = append(dst, '"')
	}
	return append(dst, '}', ' ')
}

// appendLabel appends key="value" with the value escaped.
func appendLabel(dst []byte, key, value string) []byte {
	dst = append(dst, key...)
	dst = append(dst, '=', '"')
	dst = appendEscaped(dst, value, true)
	return append(dst, '"')
}

// appendEscaped appends s escaped per the exposition format: backslash
// and line feed, plus the double quote inside a label value (# HELP
// text leaves quotes alone). A string that needs escaping is re-encoded
// rune by rune, so invalid UTF-8 in it becomes U+FFFD.
func appendEscaped(dst []byte, s string, labelValue bool) []byte {
	special := "\\\n"
	if labelValue {
		special = "\\\"\n"
	}
	if !strings.ContainsAny(s, special) {
		return append(dst, s...)
	}
	for _, r := range s {
		switch {
		case r == '\\':
			dst = append(dst, `\\`...)
		case r == '\n':
			dst = append(dst, `\n`...)
		case r == '"' && labelValue:
			dst = append(dst, `\"`...)
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return dst
}

// appendInt appends a sample's integer value and ends the line.
func appendInt(dst []byte, v int64) []byte {
	return append(strconv.AppendInt(dst, v, 10), '\n')
}

// appendSeconds appends a nanosecond count as seconds, in the shortest
// form that round-trips.
//
//csecg:host export-time formatting
func appendSeconds(dst []byte, ns int64) []byte {
	return strconv.AppendFloat(dst, float64(ns)/1e9, 'g', -1, 64)
}

// appendTraceID appends a trace ID as 16 lower-case hex digits.
func appendTraceID(dst []byte, id uint64) []byte {
	const hex = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hex[id>>uint(shift)&0xf])
	}
	return dst
}
