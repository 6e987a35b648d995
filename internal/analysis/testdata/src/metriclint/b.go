package metriclinttest

import (
	"io"
	"strings"
)

func GoodNames(w io.Writer) {
	reg := NewRegistry()
	reg.Counter("frames_total").Inc()
	reg.Gauge("queue_depth").Set(3)
	reg.Histogram("decode_latency_ns").Observe(5)
	reg.Histogram("wire_bytes_per_window").Observe(64)
	_ = WritePrometheus(w, reg)
}

func BadNames(w io.Writer) {
	reg := NewRegistry()
	reg.Counter("framesTotal").Inc()        // want "not snake_case"
	reg.Counter("frames_count").Inc()       // want "counter .* must end in _total"
	reg.Gauge("queue").Set(1)               // want "gauge .* has no unit suffix"
	reg.Histogram("decode_time").Observe(1) // want "histogram .* has no unit suffix"
	_ = WritePrometheus(w, reg)
}

func DynamicNames(w io.Writer, stage string) {
	reg := NewRegistry()
	reg.Counter(stage).Inc()                           // want "metric name is not compile-time constant"
	reg.Histogram("stage_" + stage + "_ns").Observe(1) // fine: constant unit suffix
	reg.Counter("link_" + stage).Inc()                 // want "unit suffix is not compile-time constant"
	_ = WritePrometheus(w, reg)
}

func Waived(w io.Writer, name string) {
	reg := NewRegistry()
	//csecg:metricok replaying names recorded by an earlier run
	reg.Counter(name).Inc()
	_ = WritePrometheus(w, reg)
}

func NeverExported() {
	reg := NewRegistry() // want "registry reg registers metrics but is never exported"
	reg.Counter("orphan_total").Inc()
}

func ExportedIndirectly(w io.Writer) {
	reg := NewRegistry()
	reg.Counter("fine_total").Inc()
	export(w, reg)
}

func EscapesElsewhere() {
	reg := NewRegistry()
	reg.Counter("kept_total").Inc()
	keep(reg)
}

func Labels(w io.Writer, session string) {
	reg := NewRegistry()
	reg.Counter("sessions_total").Inc()
	_ = WritePrometheusLabeled(w, reg,
		Label{Key: "session", Value: session},
		Label{Key: "UpperKey", Value: session},              // want "label key .* is not snake_case"
		Label{Key: strings.ToLower("HOST"), Value: session}) // want "label key is not compile-time constant"
}

// Sources builds label sets ahead of the export call, the way a server
// does when a session attaches: keys are checked where the literal is
// written, not only at the call.
func Sources(session string) []byte {
	reg := NewRegistry()
	reg.Counter("sources_total").Inc()
	good := Source{Registry: reg, Labels: []Label{{Key: "session", Value: session}}}
	bad := Source{Registry: reg, Labels: []Label{
		{Key: "Session", Value: session},                   // want "label key .* is not snake_case"
		{Key: strings.TrimSpace(" host "), Value: session}, // want "label key is not compile-time constant"
	}}
	return AppendPrometheus(nil, []Source{good, bad})
}
