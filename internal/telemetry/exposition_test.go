package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// expositionFixture returns a registry and a span tracer holding every
// shape the exporters render: help text and label values that need
// escaping, a non-ASCII rune, an empty histogram, bucket 0 and the
// MaxInt64 bucket, and stage histograms with exemplars.
func expositionFixture() (*Registry, *CausalTracer) {
	r := NewRegistry()
	r.SetHelp("windows_total", "windows \"decoded\"\nper session C:\\path")
	r.Counter("windows_total").Add(42)
	r.Counter("alpha_total").Inc()
	r.SetHelp("depth", "queue depth in µs-free units")
	r.Gauge("depth").Set(9)
	r.Gauge("depth").Set(4)
	h := r.Histogram("latency_ns")
	for v := int64(-2); v < 3000; v += 7 {
		h.Observe(v * v)
	}
	r.Histogram("huge_ns").Observe(math.MaxInt64)
	r.Histogram("empty_ns")

	c := NewCausalTracer(CausalConfig{Label: "record 100"})
	w := buildRetransmittedDegradedTrace(c)
	c.Finish(w, 1, w.LeafSumNs())
	for seq := uint32(2); seq < 12; seq++ {
		w := c.Begin(seq)
		w.Root(int64(seq) * 2e9)
		w.Leaf(StageCSSample, int64(seq)*2e9, int64(seq)*1_337)
		w.Leaf(StageDiff, int64(seq)*2e9+int64(seq)*1_337, 0)
		w.SolverLeaf(SolverStageFISTA1, int64(seq)*2e9+int64(seq)*1_337, 4_000_000+int64(seq)*99_999, 0)
		c.Finish(w, 0, w.LeafSumNs())
	}
	return r, c
}

// TestExpositionGolden pins the single-source exporters byte for byte:
// WritePrometheus, WritePrometheusLabeled with labels that need
// escaping, and WriteStageSeconds.
func TestExpositionGolden(t *testing.T) {
	r, c := expositionFixture()
	labels := []Label{{Key: "session", Value: `rec "100"` + "\n" + `C:\data µ`}, {Key: "mode", Value: "NEON"}}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheusLabeled(&buf, r, labels...); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteStageSeconds(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteStageSeconds(&buf, labels...); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exposition drifted from the golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramExportNeverTorn exports while other goroutines observe:
// two hammer a registry histogram, and one plays the streaming
// goroutine whose Finish feeds the span tracer's stage histograms.
// Every export must show cumulative buckets ending in a +Inf bucket
// equal to _count. Observe adds to the bucket before the count, so an
// exporter that reads the buckets and the count separately fails this.
func TestHistogramExportNeverTorn(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	c := NewCausalTracer(CausalConfig{Label: "s"})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(i % 5000)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint32(0); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			w := c.Begin(seq)
			w.Root(0)
			w.Leaf(StageCSSample, 0, int64(seq%5000))
			c.Finish(w, 0, w.LeafSumNs())
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	var buf bytes.Buffer
	for i := 0; i < 2000; i++ {
		buf.Reset()
		if err := WritePrometheus(&buf, r); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteStageSeconds(&buf); err != nil {
			t.Fatal(err)
		}
		if err := checkHistogramLines(buf.String()); err != nil {
			t.Fatalf("export %d: %v\n%s", i, err, buf.String())
		}
	}
}

// checkHistogramLines checks every histogram series in an exposition:
// bucket counts never decrease, and _count equals the +Inf bucket.
func checkHistogramLines(out string) error {
	last := map[string]int64{} // series → last bucket count
	inf := map[string]int64{}  // series → +Inf bucket
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i] // drop the exemplar
		}
		sp := strings.LastIndexByte(line, ' ')
		series, val := line[:sp], line[sp+1:]
		le := ""
		if i := strings.Index(series, `le="`); i >= 0 {
			le = series[i+4 : len(series)-2]
			series = strings.TrimSuffix(series[:i], ",") + "}"
		}
		series = strings.TrimSuffix(series, "{}")
		v, err := strconv.ParseInt(val, 10, 64)
		switch {
		case strings.Contains(series, "_bucket"):
			if err != nil {
				return fmt.Errorf("bucket value in %q", line)
			}
			key := strings.Replace(series, "_bucket", "", 1)
			if v < last[key] {
				return fmt.Errorf("bucket le=%s of %s is %d, below the previous %d", le, key, v, last[key])
			}
			last[key] = v
			if le == "+Inf" {
				inf[key] = v
			}
		case strings.Contains(series, "_count"):
			key := strings.Replace(series, "_count", "", 1)
			if err != nil || v != inf[key] {
				return fmt.Errorf("%s: _count %s, +Inf bucket %d", key, val, inf[key])
			}
		}
	}
	return nil
}
