package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
)

// e2eBounds reads the end-to-end bounds the benchmark is gated on.
func e2eBounds(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// slotFigures returns a traced pass's slot_ms_p50 and windows_per_s
// from its slot spans.
func slotFigures(tr *tracer) (slotP50, winPerS float64) {
	ms := slotSpanMs(tr)
	var total float64
	for _, m := range ms {
		total += m / 1e3
	}
	return median(ms), float64(len(ms)) / total
}

// TestDecodeSlowdownIsResolved injects a 20% slowdown into a single
// layer, coordinator.Decode, through the decoder wrapper the traced
// pass hands to NewReceiver. Host speed drifts by more than 20% within
// minutes, so an unchanged pass, the slowed pass and an unchanged twin
// advance one slot each in turn and see the same host. The slowdown must
// move stream_cr50's slot_ms_p50 by more than 15% and its windows_per_s
// by more than 12% (20% longer decodes cost the rate 16.5%), while the
// twin stays within 5% and inside the slot_ms_p50 bound. The test logs
// whether the slowdown crosses that bound: across runs on a shared host
// it has to be wider than the slowdown.
func TestDecodeSlowdownIsResolved(t *testing.T) {
	if testing.Short() {
		t.Skip("streams about 30 s of windows")
	}
	bounds := e2eBounds(t)
	runtime.GOMAXPROCS(benchProcs)
	w, err := workloadByName("stream_cr50")
	if err != nil {
		t.Fatal(err)
	}
	w.windows = 60

	base, slowed, twin := newTracedPass(w, 0), newTracedPass(w, 0.2), newTracedPass(w, 0)
	passes := []*tracedPass{base, slowed, twin}
	for i := 0; i < 4; i++ {
		sessions := make([]*tracedSession, len(passes))
		for k, tp := range passes {
			if sessions[k], err = tp.open(1, i); err != nil {
				t.Fatal(err)
			}
		}
		for more := true; more; {
			for _, ts := range sessions {
				if more, err = ts.step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, ts := range sessions {
			if err := ts.close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tp := range passes {
		if len(tp.out.checks) > 0 {
			t.Fatalf("output checks failed: %v", tp.out.checks)
		}
	}

	slotBound := bounds["slot_ms_p50"]
	baseSlot, baseRate := slotFigures(base.tr)
	worse := func(tp *tracedPass) (slot, rate float64) {
		s, r := slotFigures(tp.tr)
		t.Logf("slot_ms_p50 %.2f → %.2f ms, windows_per_s %.2f → %.2f", baseSlot, s, baseRate, r)
		return s/baseSlot - 1, 1 - r/baseRate
	}

	slot, rate := worse(twin)
	t.Logf("unchanged twin: slot_ms_p50 %+.1f%%, windows_per_s %.1f%% worse", 100*slot, 100*rate)
	if math.Abs(slot) > 0.05 || math.Abs(rate) > 0.05 || slot > slotBound {
		t.Errorf("unchanged twin moved slot_ms_p50 %+.1f%% and windows_per_s %.1f%%: more than 5%% or past the bound", 100*slot, 100*rate)
	}
	slot, rate = worse(slowed)
	t.Logf("20%% slower decode: slot_ms_p50 %+.1f%% (bound %.0f%%, crossed %v), windows_per_s %.1f%% worse",
		100*slot, 100*slotBound, slot > slotBound, 100*rate)
	if slot <= 0.15 || rate <= 0.12 {
		t.Errorf("20%% decode slowdown moved slot_ms_p50 %+.1f%% and windows_per_s %.1f%%: want more than 15%% and 12%%", 100*slot, 100*rate)
	}
}
