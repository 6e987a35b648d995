package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureRecords builds the span trees the exporters must render: a
// retransmitted, degraded window with continuation sub-stages and a
// rung change, a clean window with sub-microsecond leaf durations, and
// a shed window of a second session whose root carries no latency.
func fixtureRecords() []TraceRecord {
	c := NewCausalTracer(CausalConfig{Label: "record 100", RetainAll: true})
	w := buildRetransmittedDegradedTrace(c)
	c.Finish(w, 1, w.LeafSumNs())

	w = c.Begin(2)
	w.Root(6_000_000_000)
	w.Leaf(StageCSSample, 6_000_000_000, 517_250)
	w.Leaf(StageTX, 6_000_517_250, 19_288_888)
	w.Leaf(StageReassemble, 6_019_806_138, 0)
	w.SolverLeaf(SolverStageFISTA1, 6_019_806_138, 343_000_000, 0)
	w.Leaf(StageReconstruct, 6_362_806_138, 1_000_001)
	c.Finish(w, 0, w.LeafSumNs())
	recs := c.Records()

	shed := NewCausalTracer(CausalConfig{Label: "chaos burst-loss"})
	w = shed.Begin(7)
	w.Root(16_000_000_000)
	w.Leaf(StageCSSample, 16_000_000_000, 2_000_000)
	w.Leaf(StageTX, 16_002_000_000, 20_000_000)
	shed.FinishDropped(w, FlagShed)
	return append(recs, shed.Records()...)
}

func chromeFixture(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fixtureRecords()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestWriteChromeTraceGolden(t *testing.T) {
	got := []byte(chromeFixture(t))
	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Chrome trace output drifted from golden file.\ngot:  %s\nwant: %s", got, want)
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	out := chromeFixture(t)
	if !json.Valid([]byte(out)) {
		t.Fatalf("Chrome trace is not valid JSON:\n%s", out)
	}
	// Nanosecond ticks must render as microseconds with the remainder
	// kept: 6 000 517 250 ns → 6000517.250 µs.
	for _, frag := range []string{
		`"displayTimeUnit":"ms"`,
		`"ts":6000517.250`,
		`"ph":"B"`, `"ph":"E"`, `"ph":"i"`, `"ph":"M"`,
		`"s":"t"`,
		`"args":{"name":"record 100"}`,
		`"args":{"name":"chaos burst-loss"}`,
		`"args":{"name":"window 2"}`,
		`"flags":"degraded,retransmit,rung-change"`,
		`"attempt":2`,
		`"flags":"shed"`,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace output missing %s", frag)
		}
	}
	// Slices are B/E pairs and instants are points: nothing carries a
	// duration.
	if strings.Contains(out, `"dur"`) {
		t.Error("B/E slices and instants must not carry a duration")
	}
	// The shed window's root closes at its last leaf, not at its zero
	// latency.
	if !strings.Contains(out, `{"name":"window","ph":"E","ts":16022000.000`) {
		t.Error("shed window root must close at its last transport leaf")
	}
}

func TestWriteChromeTraceNestedAndFlow(t *testing.T) {
	var doc struct {
		TraceEvents []struct {
			Name     string
			Ph       string
			Ts       float64
			Pid, Tid int64
			Args     map[string]any
		}
	}
	if err := json.Unmarshal([]byte(chromeFixture(t)), &doc); err != nil {
		t.Fatal(err)
	}
	recs := fixtureRecords()
	type track struct{ pid, tid int64 }
	trackOf := map[string]track{} // trace ID → its one track
	open := map[track][]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		k := track{e.Pid, e.Tid}
		if e.Ph == "E" {
			stack := open[k]
			if len(stack) == 0 || stack[len(stack)-1] != e.Name {
				t.Fatalf("E %q on %v closes no matching B (open %v)", e.Name, k, stack)
			}
			open[k] = stack[:len(stack)-1]
			continue
		}
		// Every slice and instant carries its window's trace ID, and a
		// window's events never leave its track — the job flow arrows
		// used to do across the mote, link and coordinator lanes.
		id, _ := e.Args["trace_id"].(string)
		if id == "" {
			t.Fatalf("%s %q at %v µs carries no trace ID", e.Ph, e.Name, e.Ts)
		}
		if prev, ok := trackOf[id]; ok && prev != k {
			t.Errorf("trace %s spans tracks %v and %v", id, prev, k)
		}
		trackOf[id] = k
		if e.Ph == "B" {
			open[k] = append(open[k], e.Name)
		}
	}
	for k, stack := range open {
		if len(stack) != 0 {
			t.Errorf("track %v leaves %v open", k, stack)
		}
	}
	if len(trackOf) != len(recs) {
		t.Errorf("%d traced tracks for %d windows", len(trackOf), len(recs))
	}
	tracks := map[track]bool{}
	for _, k := range trackOf {
		tracks[k] = true
	}
	if len(tracks) != len(recs) {
		t.Errorf("%d tracks for %d windows, want one per window", len(tracks), len(recs))
	}
	// Continuation sub-stages nest inside the solver slice: B fista/2,
	// B stage/0, E stage/0, B stage/1, E stage/1, E fista/2.
	var seq []string
	for _, e := range doc.TraceEvents {
		if strings.HasPrefix(e.Name, "stage/") || e.Name == SolverStageFISTA2 {
			seq = append(seq, e.Ph+" "+e.Name)
		}
	}
	want := []string{"B fista/2", "B stage/0", "E stage/0", "B stage/1", "E stage/1", "E fista/2"}
	if !reflect.DeepEqual(seq, want) {
		t.Errorf("solver nesting %v, want %v", seq, want)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := fixtureRecords()
	var buf bytes.Buffer
	if err := WriteTraceRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("JSONL round trip changed records:\ngot  %+v\nwant %+v", got, recs)
	}
}

func TestReadJSONLBadLine(t *testing.T) {
	_, err := ReadTraceRecords(strings.NewReader("{\"trace_id\":\"01\",\"seq\":0,\"spans\":[]}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-numbered parse error, got %v", err)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("windows_total").Add(3)
	reg.Gauge("depth").Set(2)
	h := reg.Histogram("latency_ns")
	h.Observe(5)
	h.Observe(900)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"# TYPE windows_total counter",
		"windows_total 3",
		"# TYPE depth gauge",
		"depth 2",
		"# TYPE latency_ns histogram",
		`latency_ns_bucket{le="+Inf"} 2`,
		"latency_ns_sum 905",
		"latency_ns_count 2",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Prometheus output missing %q\n%s", frag, out)
		}
	}
	// le buckets must be cumulative: the bucket covering 900 (le="1023")
	// includes the earlier observation of 5.
	if !strings.Contains(out, `le="1023"} 2`) {
		t.Errorf("buckets not cumulative:\n%s", out)
	}
}
