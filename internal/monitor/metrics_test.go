package monitor_test

import (
	"flag"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"csecg"
	"csecg/internal/monitor"
	"csecg/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the /metrics fixture")

// fixtureSessionNames exercise label escaping: a quote, a backslash, a
// line feed and a non-ASCII rune.
var fixtureSessionNames = []string{
	"rec 100",
	`rec "106"` + "\n" + `C:\ecg`,
	"rec 203 µV",
}

// populateFixture fills a registry (and, when spans is non-nil, a span
// tracer) with deterministic content that differs per session i: the
// sessions share most families, but each also has one the others lack,
// so a multi-session scrape has to merge the family lists.
func populateFixture(i int, reg *telemetry.Registry, spans *telemetry.CausalTracer) {
	k := int64(i + 1)
	reg.SetHelp("quality_windows_total", "windows decoded")
	reg.Counter("quality_windows_total").Add(30 * k)
	reg.Counter("link_frames_total").Add(123 * k)
	reg.SetHelp("queue_depth", `admission queue depth \ backlog`+"\nsecond line")
	reg.Gauge("queue_depth").Set(4 * k)
	reg.Gauge("queue_depth").Set(k)
	reg.Gauge("coordinator_rung").Set(k - 1)
	lat := reg.Histogram("stream_decode_latency_ns")
	for v := int64(0); v < 40; v++ {
		lat.Observe(v*v*1_000*k + 17)
	}
	lat.Observe(-5)
	lat.Observe(0)
	switch i {
	case 0:
		reg.Counter("only_first_total").Inc()
		reg.Histogram("extreme_values_ns").Observe(math.MaxInt64)
	case 1:
		reg.SetHelp("link_frames_total", "frames received, CRC-clean or not")
		reg.Histogram("retransmit_wait_ns") // registered, never observed
	case 2:
		reg.Gauge("extra_gauge_bytes").Set(512)
	}
	if spans == nil {
		return
	}
	for seq := uint32(0); seq < uint32(8*k); seq++ {
		w := spans.Begin(seq)
		start := int64(seq) * 2_000_000_000
		w.Root(start)
		t := start
		leaf := func(stage string, d int64) {
			w.Leaf(stage, t, d)
			t += d
		}
		leaf(telemetry.StageCSSample, 1_500+int64(seq)*k)
		leaf(telemetry.StageDiff, 0)
		leaf(telemetry.StageHuffman, 40_000*k)
		if seq%3 == 1 {
			w.AttemptLeaf(telemetry.StageRetransmit, t, 9_000_000, 1)
			t += 9_000_000
		}
		sol := w.SolverLeaf(telemetry.SolverStageFISTA1, t, 3_000_000+int64(seq)*250_000, 0)
		w.Child(sol, telemetry.ContStageName(0), t, 1_000_000)
		t += 3_000_000 + int64(seq)*250_000
		leaf(telemetry.StageReconstruct, 12_345)
		spans.Finish(w, 0, w.LeafSumNs())
	}
}

// newFixtureServer serves three sessions on a manual clock: two with
// span tracers (one of which never finished a window) and one without.
func newFixtureServer(t testing.TB) *monitor.Server {
	t.Helper()
	clock := telemetry.NewManualClock(0)
	srv := monitor.NewServer(clock)
	for i, name := range fixtureSessionNames {
		reg := telemetry.NewRegistry()
		var spans *telemetry.CausalTracer
		if i < 2 {
			spans = telemetry.NewCausalTracer(telemetry.CausalConfig{Label: name})
		}
		if i == 0 {
			populateFixture(i, reg, spans)
		} else {
			populateFixture(i, reg, nil)
		}
		srv.Attach(monitor.NewSession(monitor.SessionConfig{Name: name, Registry: reg, Spans: spans}, nil))
	}
	clock.Set(1_234_567_890)
	return srv
}

// scrapeMetrics returns one /metrics body served through Handler().
func scrapeMetrics(t testing.TB, srv *monitor.Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// sampleLines returns the body's sample lines, sorted. The build-info
// sample is left out: its go label names the toolchain that ran the
// test.
func sampleLines(body string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "csecg_build_info{") {
			continue
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}

// TestMetricsSamplesMatchFixture pins the content of a three-session
// scrape: the fixture was rendered by the per-session exporter that the
// family-major renderer replaced, and the sorted sample lines must still
// be the same multiset. Only comment lines may be deduplicated and
// reordered.
func TestMetricsSamplesMatchFixture(t *testing.T) {
	body := scrapeMetrics(t, newFixtureServer(t))
	path := filepath.Join("testdata", "metrics_three_sessions.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	got, want := sampleLines(body), sampleLines(string(raw))
	if len(got) != len(want) {
		t.Fatalf("%d sample lines, fixture has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample line %d:\ngot  %s\nwant %s", i, got[i], want[i])
		}
	}
}

// newScrapeServer serves n fixture sessions, every one with a span
// tracer that has finished windows.
func newScrapeServer(n int) *monitor.Server {
	srv := monitor.NewServer(telemetry.NewManualClock(0))
	for i := 0; i < n; i++ {
		name := fixtureSessionNames[i%len(fixtureSessionNames)] + " #" + strconv.Itoa(i)
		reg := telemetry.NewRegistry()
		spans := telemetry.NewCausalTracer(telemetry.CausalConfig{Label: name})
		populateFixture(i%len(fixtureSessionNames), reg, spans)
		srv.Attach(monitor.NewSession(monitor.SessionConfig{Name: name, Registry: reg, Spans: spans}, nil))
	}
	return srv
}

// discardWriter is a reusable ResponseWriter that keeps only the body
// length, so a benchmark counts the handler's allocations and not a
// recorder's.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkMetricsScrape times one /metrics request through Handler()
// against one and six warmed sessions.
func BenchmarkMetricsScrape(b *testing.B) {
	for _, n := range []int{1, 6} {
		b.Run("sessions="+strconv.Itoa(n), func(b *testing.B) {
			h := newScrapeServer(n).Handler()
			req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
			w := &discardWriter{h: http.Header{}}
			h.ServeHTTP(w, req)
			b.SetBytes(int64(w.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, req)
			}
		})
	}
}

// TestCheckExpositionCatchesFaults is the checker's negative control:
// each document breaks one rule, and the per-session exposition the
// fixture was captured from repeats # TYPE lines.
func TestCheckExpositionCatchesFaults(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "metrics_three_sessions.prom"))
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string]string{
		"per-session fixture":   string(raw),
		"duplicate TYPE":        "# TYPE a_total counter\na_total 1\n# TYPE a_total counter\n",
		"TYPE after samples":    "a_total 1\n# TYPE a_total counter\n",
		"duplicate HELP":        "# HELP a_total a\n# HELP a_total b\na_total 1\n",
		"split family":          "a_total{s=\"x\"} 1\nb_total 2\na_total{s=\"y\"} 1\n",
		"bad escape":            "a_total{s=\"x\\t\"} 1\n",
		"raw quote":             "a_total{s=\"x\"y\"} 1\n",
		"bad label key":         "a_total{0s=\"x\"} 1\n",
		"bad metric name":       "a-b_total 1\n",
		"bad value":             "a_total 1x\n",
		"no trailing line feed": "a_total 1",
		"torn +Inf": "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 2\n" +
			"h_sum 2\nh_count 2\n",
		"+Inf differs from _count": "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\n" +
			"h_sum 2\nh_count 3\n",
		"le not ascending": "# TYPE h histogram\nh_bucket{le=\"3\"} 1\nh_bucket{le=\"1\"} 1\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"exemplar off a bucket": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\n" +
			"h_sum 1 # {trace_id=\"00000000000000ab\"} 1\nh_count 1\n",
	} {
		if errs := checkExposition(doc); len(errs) == 0 {
			t.Errorf("%s: checker found nothing wrong", name)
		}
	}
}

// TestMetricsExpositionValid runs the checker over the three-session
// fixture scrape.
func TestMetricsExpositionValid(t *testing.T) {
	body := scrapeMetrics(t, newFixtureServer(t))
	for _, e := range checkExposition(body) {
		t.Error(e)
	}
	if n := strings.Count(body, "# TYPE "+telemetry.StageSecondsMetric+" "); n != 1 {
		t.Errorf("%d TYPE lines for %s, want 1", n, telemetry.StageSecondsMetric)
	}
}

// TestMetricsExpositionValidDuringStreams streams three traced
// sessions at once, one of them over a burst-loss NACK link, and checks
// every /metrics document scraped while they run and after they finish.
// The streams create metrics lazily while the scrapes read the sorted
// family lists, so under -race this is also the race check of that
// path.
func TestMetricsExpositionValidDuringStreams(t *testing.T) {
	srv := monitor.NewServer(telemetry.NewManualClock(0))
	h := srv.Handler()
	done := make(chan error, 3)
	for i, rec := range []string{"100", "106", "203"} {
		name := "rec " + rec
		reg := telemetry.NewRegistry()
		spans := telemetry.NewCausalTracer(telemetry.CausalConfig{Label: name})
		ses := monitor.NewSession(monitor.SessionConfig{Name: name, Registry: reg, Spans: spans}, nil)
		srv.Attach(ses)
		lnk := csecg.DefaultLinkConfig()
		if i == 1 {
			lnk.Burst = &csecg.BurstConfig{PGoodBad: 0.08, PBadGood: 0.4}
			lnk.Seed = 0xC0FFEE
		}
		go func() {
			_, err := csecg.RunStream(csecg.StreamConfig{
				RecordID:  rec,
				Seconds:   12,
				Params:    csecg.Params{Seed: 0x601, M: csecg.MForCR(50, csecg.WindowSize)},
				Link:      lnk,
				Transport: csecg.TransportConfig{NACK: i == 1},
				Metrics:   reg,
				Observer:  ses,
				Spans:     spans,
			})
			ses.Finish()
			done <- err
		}()
	}
	// Every stream must finish before the test returns, failed or not:
	// a stream still running would charge its allocations to the next
	// test's AllocsPerRun.
	running := 3
	defer func() {
		for ; running > 0; running-- {
			<-done
		}
	}()
	check := func(when string) (string, bool) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		body := rec.Body.String()
		errs := checkExposition(body)
		if len(errs) > 0 {
			t.Errorf("%s: %d problems, first: %s", when, len(errs), errs[0])
		}
		return body, len(errs) == 0
	}
	for ok := true; running > 0; {
		select {
		case err := <-done:
			running--
			if err != nil {
				t.Error(err)
			}
		default:
			if ok {
				_, ok = check("mid-stream")
			}
		}
	}
	body, _ := check("final")
	for _, name := range []string{"rec 100", "rec 106", "rec 203"} {
		want := telemetry.StageSecondsMetric + `_bucket{session="` + name + `",stage="`
		if !strings.Contains(body, want) {
			t.Errorf("final scrape has no stage histograms for %s", name)
		}
	}
}

// TestMetricsRenderAllocatesNothing is the zero-allocation gate of the
// renderer: six warmed sessions rendered into a reused buffer.
func TestMetricsRenderAllocatesNothing(t *testing.T) {
	srv := newScrapeServer(6)
	buf := srv.AppendMetrics(nil)
	if a := testing.AllocsPerRun(100, func() { buf = srv.AppendMetrics(buf[:0]) }); a != 0 {
		t.Errorf("rendering six sessions allocates %.1f objects, want 0", a)
	}
}

// TestMetricsHandlerAllocsFlat bounds the allocations of one /metrics
// request through Handler() and requires them not to grow with the
// session count.
func TestMetricsHandlerAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	allocs := func(sessions int) float64 {
		h := newScrapeServer(sessions).Handler()
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, req)
		return testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) })
	}
	one, six := allocs(1), allocs(6)
	if six > one {
		t.Errorf("a scrape allocates %.1f objects with six sessions, %.1f with one", six, one)
	}
	if six > 10 {
		t.Errorf("a six-session scrape allocates %.1f objects, want at most 10", six)
	}
}
