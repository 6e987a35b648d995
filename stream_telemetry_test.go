package csecg

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"csecg/internal/telemetry"
)

// streamSpans runs a short clean session with a retain-all span tracer
// sized to the session and returns the report plus every window's span
// tree.
func streamSpans(t *testing.T, cfg StreamConfig) (*StreamReport, []SpanTraceRecord) {
	t.Helper()
	spans := NewSpanTracer(SpanTracerConfig{
		Label:           "record " + cfg.RecordID,
		RetainAll:       true,
		RetainAnomalous: int(cfg.Seconds * FsMote / WindowSize),
	})
	cfg.Spans = spans
	cfg.Metrics = NewMetrics()
	cfg.Clock = NewManualClock(0)
	rep, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := spans.RetainDropped(); n != 0 {
		t.Fatalf("retain-all tracer sized to the session dropped %d trees", n)
	}
	return rep, spans.Records()
}

// TestStreamTraceCoversEveryStage is the PR's acceptance property: every
// decoded window must appear in the span trees with every encode,
// transport and decode leaf.
func TestStreamTraceCoversEveryStage(t *testing.T) {
	rep, recs := streamSpans(t, StreamConfig{
		RecordID: "100",
		Seconds:  12,
		Params:   Params{Seed: 0x0B5, M: MForCR(50, WindowSize)},
		Mode:     ModeNEON,
	})
	if rep.Decoded == 0 {
		t.Fatal("clean session decoded nothing")
	}
	if len(recs) != rep.Decoded {
		t.Fatalf("%d span trees for %d decoded windows", len(recs), rep.Decoded)
	}
	solverStages := map[string]bool{
		telemetry.SolverStageFISTA1: true, telemetry.SolverStageFISTA2: true,
		telemetry.SolverStageGPSR2: true, telemetry.SolverStageGPSR4: true,
	}
	for i, r := range recs {
		if r.Seq != uint32(i) {
			t.Fatalf("tree %d is window %d, want every window in sequence", i, r.Seq)
		}
		leaves := map[string]bool{}
		for _, s := range r.Spans {
			if s.Parent != 0 {
				continue
			}
			leaves[s.Stage] = true
			if solverStages[s.Stage] {
				leaves["solver"] = true
			}
		}
		for _, stage := range []string{
			telemetry.StageCSSample, telemetry.StageDiff, telemetry.StageHuffman,
			telemetry.StageTX, telemetry.StageReassemble, "solver", telemetry.StageReconstruct,
		} {
			if !leaves[stage] {
				t.Errorf("window %d has no %q leaf", r.Seq, stage)
			}
		}
	}
	// Report summaries must be populated from the same session.
	for _, stage := range PipelineStages() {
		if rep.Stages[stage].Count == 0 {
			t.Errorf("report has no %q stage observations", stage)
		}
	}
	if got := rep.SolverIterations.Count; got != int64(rep.Decoded) {
		t.Errorf("solver iteration summary has %d observations, want %d", got, rep.Decoded)
	}
}

// TestStreamTraceSpansDisjointPerTrack pins the Chrome export of a
// session's span trees: one track per window, every B closed by its E,
// children inside their parent, and no two sibling slices on a track
// overlapping.
func TestStreamTraceSpansDisjointPerTrack(t *testing.T) {
	_, recs := streamSpans(t, StreamConfig{
		RecordID: "100",
		Seconds:  10,
		Params:   Params{Seed: 0x0B5, M: MForCR(50, WindowSize)},
		Mode:     ModeNEON,
	})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name     string
			Ph       string
			Ts       float64
			Pid, Tid int64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	type open struct {
		name string
		ts   float64
	}
	type track struct {
		stack      []open
		siblingEnd []float64 // end of the last closed slice per depth
	}
	tracks := map[[2]int64]*track{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "B" && e.Ph != "E" {
			continue
		}
		k := [2]int64{e.Pid, e.Tid}
		tr := tracks[k]
		if tr == nil {
			tr = &track{}
			tracks[k] = tr
		}
		d := len(tr.stack)
		if e.Ph == "B" {
			if d > 0 && e.Ts < tr.stack[d-1].ts {
				t.Fatalf("slice %q at %v µs starts before its parent %q", e.Name, e.Ts, tr.stack[d-1].name)
			}
			if d < len(tr.siblingEnd) && e.Ts < tr.siblingEnd[d] {
				t.Fatalf("slice %q at %v µs overlaps its previous sibling on pid %d tid %d (ends %v)",
					e.Name, e.Ts, e.Pid, e.Tid, tr.siblingEnd[d])
			}
			tr.stack = append(tr.stack, open{e.Name, e.Ts})
			if d+1 < len(tr.siblingEnd) {
				tr.siblingEnd = tr.siblingEnd[:d+1]
			}
			continue
		}
		if d == 0 || tr.stack[d-1].name != e.Name {
			t.Fatalf("E %q on pid %d tid %d closes no matching B", e.Name, e.Pid, e.Tid)
		}
		if e.Ts < tr.stack[d-1].ts {
			t.Fatalf("slice %q ends at %v µs before it starts", e.Name, e.Ts)
		}
		tr.stack = tr.stack[:d-1]
		for len(tr.siblingEnd) <= d-1 {
			tr.siblingEnd = append(tr.siblingEnd, 0)
		}
		tr.siblingEnd[d-1] = e.Ts
	}
	if len(tracks) != len(recs) {
		t.Errorf("%d slice tracks for %d windows, want one per window", len(tracks), len(recs))
	}
	for k, tr := range tracks {
		if len(tr.stack) != 0 {
			t.Errorf("pid %d tid %d leaves %d slices open", k[0], k[1], len(tr.stack))
		}
	}
}

// TestStreamDecodeLatencyPerWindow pins the per-window recovery-latency
// accounting. A clean session recovers every window within its 2-second
// real-time budget; a bursty NACK session recovers gapped windows whole
// slots late — visible in DecodeLatency.Max, invisible to the session
// mean MeanDecodeTime.
func TestStreamDecodeLatencyPerWindow(t *testing.T) {
	base := StreamConfig{
		RecordID: "100",
		Seconds:  60,
		Params:   Params{Seed: 0x7A4, M: MForCR(50, WindowSize)},
		Mode:     ModeNEON,
	}

	clean, err := RunStream(base)
	if err != nil {
		t.Fatal(err)
	}
	if clean.DecodeLatency.Count != int64(clean.Decoded) {
		t.Fatalf("clean: %d latency observations for %d decoded windows",
			clean.DecodeLatency.Count, clean.Decoded)
	}
	budget := int64(2 * time.Second)
	if clean.DecodeLatency.Max > budget {
		t.Errorf("clean session worst recovery latency %v exceeds the 2 s window period",
			time.Duration(clean.DecodeLatency.Max))
	}

	lossy := base
	lossy.Link = DefaultLinkConfig()
	lossy.Link.Burst = &BurstConfig{PGoodBad: 0.06, PBadGood: 0.50}
	lossy.Link.BitFlipProb = 0.0002
	lossy.Link.Seed = 0xC4A7
	lossy.Transport = TransportConfig{NACK: true}
	rep, err := RunStream(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transport.Gaps == 0 {
		t.Fatal("lossy session produced no gaps; channel config too mild to exercise recovery")
	}
	if rep.DecodeLatency.Count != int64(rep.Decoded) {
		t.Fatalf("lossy: %d latency observations for %d decoded windows",
			rep.DecodeLatency.Count, rep.Decoded)
	}
	// Windows recovered via NACK arrive at least one slot after their
	// acquisition, so the per-window tail must exceed the clean bound...
	if rep.DecodeLatency.Max <= budget {
		t.Errorf("lossy worst recovery latency %v, want > %v (gap recovery spans slots)",
			time.Duration(rep.DecodeLatency.Max), time.Duration(budget))
	}
	if rep.DecodeLatency.Max <= clean.DecodeLatency.Max {
		t.Errorf("lossy tail %v not above clean tail %v",
			time.Duration(rep.DecodeLatency.Max), time.Duration(clean.DecodeLatency.Max))
	}
	// ...while the session-mean decode time stays comfortably sub-second,
	// which is exactly why the mean alone cannot express recovery
	// latency.
	if rep.MeanDecodeTime >= time.Second {
		t.Errorf("mean decode time %v, want < 1 s", rep.MeanDecodeTime)
	}
}

// TestStreamSharedRegistryAcrossSessions checks that callers can pool
// several sessions into one registry, the csecg-bench -metrics shape.
func TestStreamSharedRegistryAcrossSessions(t *testing.T) {
	reg := NewMetrics()
	var windows int64
	for _, id := range []string{"100", "101"} {
		rep, err := RunStream(StreamConfig{
			RecordID: id,
			Seconds:  8,
			Params:   Params{Seed: 0x33, M: MForCR(50, WindowSize)},
			Mode:     ModeNEON,
			Metrics:  reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		windows += int64(rep.Windows)
	}
	if got := reg.Counter("mote_windows_total").Load(); got != windows {
		t.Errorf("pooled mote_windows_total = %d, want %d", got, windows)
	}
	if reg.Histogram("stream_decode_latency_ns").Count() == 0 {
		t.Error("pooled registry missing decode-latency observations")
	}
}

// TestStreamReportsCRCRejections pins the ingest integrity wiring: on a
// bit-flipping channel the receiver's CRC — not the link model —
// rejects corrupt frames, and the count surfaces in the report and the
// telemetry registry.
func TestStreamReportsCRCRejections(t *testing.T) {
	reg := NewMetrics()
	cfg := StreamConfig{
		RecordID: "100",
		Seconds:  60,
		Params:   Params{Seed: 0x7A4, M: MForCR(50, WindowSize), KeyFrameInterval: 8},
		Mode:     ModeNEON,
		Metrics:  reg,
	}
	cfg.Link = DefaultLinkConfig()
	cfg.Link.BitFlipProb = 0.001
	cfg.Link.Seed = 0xBADC0DE
	rep, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CRCRejected == 0 {
		t.Fatal("bit-flipping channel produced no CRC rejections; corruption bypassed ingest")
	}
	if rep.CRCRejected != rep.Transport.Rejected {
		t.Fatalf("CRCRejected %d != Transport.Rejected %d", rep.CRCRejected, rep.Transport.Rejected)
	}
	if got := reg.Counter("transport_crc_rejected_total").Load(); got != int64(rep.CRCRejected) {
		t.Fatalf("transport_crc_rejected_total = %d, want %d", got, rep.CRCRejected)
	}
	// Rejected frames are losses: the session still recovers and decodes.
	if rep.Decoded == 0 {
		t.Fatal("nothing decoded under corruption")
	}
}
