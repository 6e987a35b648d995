package coordinator

import (
	"testing"

	"csecg/internal/core"
	"csecg/internal/ecg"
	"csecg/internal/metrics"
	"csecg/internal/telemetry"
)

// TestDecoderInstrumentationAndIterationTrace round-trips real windows
// through an instrumented decoder and checks the registry metrics,
// including that the iteration histogram accounts for every iteration
// the results report.
func TestDecoderInstrumentationAndIterationTrace(t *testing.T) {
	params := core.Params{Seed: 9, M: metrics.MForCR(50, core.WindowSize)}
	enc, err := core.NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewRealTimeDecoder(params, NEON)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	clk := telemetry.NewManualClock(0)
	dec.Instrument(reg, clk)

	rec, err := ecg.RecordByID("100")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := rec.Channel256(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	decodes := 0
	var iterations int64
	for o := 0; o+core.WindowSize <= len(samples); o += core.WindowSize {
		pkt, err := enc.EncodeWindow(samples[o : o+core.WindowSize])
		if err != nil {
			t.Fatal(err)
		}
		res, err := dec.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		decodes++
		iterations += int64(res.Iterations)
	}
	if decodes < 2 {
		t.Fatal("test needs at least two windows")
	}
	if got := reg.Counter("coordinator_decodes_total").Load(); got != int64(decodes) {
		t.Errorf("decode counter %d, want %d", got, decodes)
	}
	ih := reg.Histogram("coordinator_iterations")
	if ih.Count() != int64(decodes) || ih.Max() == 0 {
		t.Errorf("iteration histogram count %d max %d, want %d observations", ih.Count(), ih.Max(), decodes)
	}
	if ih.Sum() != iterations {
		t.Errorf("iteration histogram sum %d, want Σ Result.Iterations = %d", ih.Sum(), iterations)
	}
	if reg.Histogram("coordinator_decode_modeled_ns").Count() != int64(decodes) {
		t.Error("modeled-time histogram missing observations")
	}
	// The manual clock never advances, so measured wall time is zero but
	// still observed once per decode.
	if reg.Histogram("coordinator_solve_wall_ns").Count() != int64(decodes) {
		t.Error("solve wall-time histogram missing observations")
	}
}

// TestDecoderIterTraceIsolatedPerResult ensures each result carries its
// own samples — decoding the next window must not mutate a prior
// result.
func TestDecoderIterTraceIsolatedPerResult(t *testing.T) {
	params := core.Params{Seed: 9, M: metrics.MForCR(50, core.WindowSize)}
	enc, err := core.NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewRealTimeDecoder(params, NEON)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ecg.RecordByID("101")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := rec.Channel256(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkt1, err := enc.EncodeWindow(samples[:core.WindowSize])
	if err != nil {
		t.Fatal(err)
	}
	res1, err := dec.Decode(pkt1)
	if err != nil {
		t.Fatal(err)
	}
	first := append([]int16(nil), res1.Samples...)
	pkt2, err := enc.EncodeWindow(samples[core.WindowSize : 2*core.WindowSize])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(pkt2); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if res1.Samples[i] != first[i] {
			t.Fatalf("second decode mutated the first result's sample %d: %v → %v", i, first[i], res1.Samples[i])
		}
	}
}
