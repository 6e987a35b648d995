package blackbox_test

import (
	"strings"
	"testing"

	"csecg/internal/blackbox"
	"csecg/internal/chaos"
	"csecg/internal/link"
	"csecg/internal/telemetry"
)

// runRecorded executes one chaos scenario with the flight recorder
// attached and returns the report.
func runRecorded(t *testing.T, sc chaos.Scenario, dir string) *chaos.Report {
	t.Helper()
	sc.Record = &blackbox.Config{Sink: blackbox.DirSink(dir)}
	rep, err := chaos.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recorder == nil {
		t.Fatal("scenario ran without a recorder")
	}
	if err := rep.Recorder.SealErr(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// replayFile loads and replays one bundle.
func replayFile(t *testing.T, path string) (*blackbox.Bundle, *blackbox.ReplayReport) {
	t.Helper()
	b, err := blackbox.ReadBundleFile(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	rep, err := blackbox.Replay(b)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return b, rep
}

// TestQualitySLOTripSealsReplayableBundle is the acceptance pin: a
// chaos run whose burst loss burns the quality SLO budget seals a
// bundle at the warn escalation, and replaying that bundle through the
// real receiver + solver stack reproduces every recorded window
// bit-for-bit — same rung, residual norm, and EstPRDN.
func TestQualitySLOTripSealsReplayableBundle(t *testing.T) {
	dir := t.TempDir()
	rep := runRecorded(t, chaos.Scenario{
		Name:    "slo-trip",
		Windows: 48,
		Burst:   &link.BurstConfig{PGoodBad: 0.25, PBadGood: 0.25},
		// Tightened objective: the gap-rate margin the burst losses put
		// on the PRDN estimate must register as SLO burn (see
		// Scenario.QualityBadPRDN).
		QualityBadPRDN: 3.2,
	}, dir)

	var sloBundle string
	for _, p := range rep.Bundles {
		if strings.HasSuffix(p, "-slo.jsonl") {
			sloBundle = p
			break
		}
	}
	if sloBundle == "" {
		t.Fatalf("quality SLO never tripped under burst loss; bundles: %v", rep.Bundles)
	}

	b, rr := replayFile(t, sloBundle)
	if !b.Header.Complete() {
		t.Fatalf("48-window session should fit the default rings: %+v", b.Header)
	}
	if b.Header.Cause != "slo" {
		t.Fatalf("cause %q, want slo", b.Header.Cause)
	}
	if rr.Skipped || !rr.Complete {
		t.Fatalf("replay did not run the bit-exact tier: %+v", rr)
	}
	if rr.Compared == 0 || rr.Compared != rr.Windows {
		t.Fatalf("compared %d of %d windows", rr.Compared, rr.Windows)
	}
	if !rr.OK() {
		t.Fatalf("replay diverged: %+v", rr.Divergences)
	}
	// The bundle carries the incident narrative: the SLO transition
	// events that led to the seal.
	sawSLO := false
	for _, e := range b.Events {
		if e.Kind == "slo" && e.Name == "quality" {
			sawSLO = true
		}
	}
	if !sawSLO {
		t.Fatal("no quality SLO transition event in the bundle")
	}
}

// TestPanicBundleReplaysScriptedFailures: injected decode panics seal a
// decode-panic bundle whose recorded failures replay by attempt
// ordinal — the scripted decoder reproduces each contained panic
// without touching the real solver's state.
func TestPanicBundleReplaysScriptedFailures(t *testing.T) {
	dir := t.TempDir()
	rep := runRecorded(t, chaos.Scenario{
		Name:    "panic-replay",
		Windows: 36,
		// Every 5th decode attempt panics: enough contained panics for a
		// trigger plus scripted-failure coverage in replay.
		PanicEvery: 5,
	}, dir)
	if rep.ContainedPanics == 0 {
		t.Fatal("scenario injected no panics")
	}

	var panicBundle string
	for _, p := range rep.Bundles {
		if strings.HasSuffix(p, "-decode-panic.jsonl") {
			panicBundle = p
			break
		}
	}
	if panicBundle == "" {
		t.Fatalf("contained panic sealed no bundle; bundles: %v", rep.Bundles)
	}

	b, rr := replayFile(t, panicBundle)
	sawFailure := false
	for _, e := range b.Events {
		if e.Kind == "decode-failure" && e.Panicked {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Fatal("no panicked decode-failure event recorded")
	}
	if rr.Skipped || !rr.OK() {
		t.Fatalf("panic bundle replay failed: %+v", rr)
	}
	if rr.Compared == 0 {
		t.Fatal("nothing compared")
	}
}

// TestWrappedBundleReplaysSolverTier: a tiny frame ring forces
// wraparound, so replay resumes mid-stream and holds the
// solver-deterministic fields to account on rung-matched windows.
func TestWrappedBundleReplaysSolverTier(t *testing.T) {
	dir := t.TempDir()
	sc := chaos.Scenario{Name: "wrapped", Windows: 48}
	sc.Record = &blackbox.Config{
		Sink: blackbox.DirSink(dir),
		// Room for ~12 windows of frames: the ring must wrap.
		FrameArenaBytes: 2 << 10,
		FrameCap:        16,
	}
	rep, err := chaos.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bundles) == 0 {
		rep.Recorder.SealNow(blackbox.TriggerManual, "wrap test") //csecg:errok checked below
	}
	if err := rep.Recorder.SealErr(); err != nil {
		t.Fatal(err)
	}

	b, rr := replayFile(t, rep.Recorder.Bundles()[0])
	if b.Header.Complete() {
		t.Fatalf("frame ring was sized to wrap, header says complete: %+v", b.Header)
	}
	if rr.Complete || rr.Skipped {
		t.Fatalf("wrapped bundle took the wrong replay tier: %+v", rr)
	}
	if rr.Compared == 0 {
		t.Fatalf("no rung-matched windows compared: %+v", rr)
	}
	if !rr.OK() {
		t.Fatalf("solver fields diverged on replay: %+v", rr.Divergences)
	}
}

// TestUnreproducibleBundleSkipped: scenarios that perturb solver costs
// mid-run are marked unreproducible, and replay refuses to diff them
// instead of reporting false divergence.
func TestUnreproducibleBundleSkipped(t *testing.T) {
	dir := t.TempDir()
	rep := runRecorded(t, chaos.Scenario{
		Name: "slowdown", Windows: 36,
		Slowdown: 2, BurstArrival: 4, DecodesPerSlot: 4,
	}, dir)
	if len(rep.Bundles) == 0 {
		rep.Recorder.SealNow(blackbox.TriggerManual, "slowdown capture") //csecg:errok checked below
	}
	if err := rep.Recorder.SealErr(); err != nil {
		t.Fatal(err)
	}
	_, rr := replayFile(t, rep.Recorder.Bundles()[0])
	if !rr.Skipped || !rr.OK() {
		t.Fatalf("unreproducible bundle was diffed: %+v", rr)
	}
	if !strings.Contains(rr.SkipReason, "slowdown") {
		t.Fatalf("skip reason %q does not name the cause", rr.SkipReason)
	}
}

// TestTracedChaosBundleReplays: a chaos run with both the flight
// recorder and the span tracer attached stamps every recorded window
// with a trace ID, and its bundle must carry the tracer's seed so replay
// re-derives the same IDs instead of diverging on field=trace.
func TestTracedChaosBundleReplays(t *testing.T) {
	dir := t.TempDir()
	spans := telemetry.NewCausalTracer(telemetry.CausalConfig{Label: "chaos traced"})
	rep := runRecorded(t, chaos.Scenario{
		Name:    "traced",
		Windows: 24,
		Burst:   &link.BurstConfig{PGoodBad: 0.1, PBadGood: 0.5},
		Spans:   spans,
	}, dir)
	if len(rep.Bundles) == 0 {
		rep.Recorder.SealNow(blackbox.TriggerManual, "traced capture") //csecg:errok checked below
	}
	if err := rep.Recorder.SealErr(); err != nil {
		t.Fatal(err)
	}
	b, rr := replayFile(t, rep.Recorder.Bundles()[0])
	if b.Header.Meta.TraceSeed != spans.Seed() {
		t.Fatalf("bundle trace seed %#x, want the tracer's %#x", b.Header.Meta.TraceSeed, spans.Seed())
	}
	traced := 0
	for _, w := range b.Windows {
		if w.Trace != 0 {
			traced++
		}
	}
	if traced == 0 {
		t.Fatal("no recorded window carries a trace ID")
	}
	if rr.Skipped || rr.Compared == 0 {
		t.Fatalf("replay compared nothing: %+v", rr)
	}
	if !rr.OK() {
		t.Fatalf("traced bundle diverged: %+v", rr.Divergences)
	}
}

// TestReplayFlagsTamperedBundle: the divergence detector actually
// detects — altering one recorded field fails the replay.
func TestReplayFlagsTamperedBundle(t *testing.T) {
	dir := t.TempDir()
	rep := runRecorded(t, chaos.Scenario{Name: "tamper", Windows: 24}, dir)
	if len(rep.Bundles) == 0 {
		rep.Recorder.SealNow(blackbox.TriggerManual, "tamper capture") //csecg:errok checked below
	}
	if err := rep.Recorder.SealErr(); err != nil {
		t.Fatal(err)
	}
	b, err := blackbox.ReadBundleFile(rep.Recorder.Bundles()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Windows) == 0 {
		t.Fatal("bundle has no windows to tamper with")
	}
	b.Windows[len(b.Windows)/2].Iterations += 3
	rr, err := blackbox.Replay(b)
	if err != nil {
		t.Fatal(err)
	}
	if rr.OK() {
		t.Fatal("tampered bundle replayed clean")
	}
	found := false
	for _, d := range rr.Divergences {
		if d.Field == "iterations" {
			found = true
		}
	}
	if !found {
		t.Fatalf("divergences %+v do not name the tampered field", rr.Divergences)
	}
}
