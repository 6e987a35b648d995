// Package chaos is the survival-layer proving ground: it drives the
// full mote → link → coordinator pipeline through fault cocktails —
// bit-flip corruption, Gilbert–Elliott burst loss, mote reboots, clock
// drift, modeled CPU slowdown under burst arrival, and injected decode
// panics — and reports whether the session survived on the layer's
// contract: zero escaped panics, a bounded admission queue, bounded
// decode latency, and health back to decoding by session end.
//
// Every run is deterministic: the faults come from the seeded channel
// model and the injectors below, the clocks are modeled, and nothing
// reads wall time or global randomness.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"time"

	"csecg/internal/blackbox"
	"csecg/internal/coordinator"
	"csecg/internal/core"
	"csecg/internal/link"
	"csecg/internal/monitor"
	"csecg/internal/mote"
	"csecg/internal/rng"
	"csecg/internal/telemetry"
)

// Scenario is one fault cocktail over a synthetic monitoring session.
// The zero value (plus a Name) is a clean run.
type Scenario struct {
	Name string
	// Windows is the session length (default 96).
	Windows int

	// Channel faults (applied to the data downlink).
	BitFlipProb float64           // per-byte corruption probability
	DropProb    float64           // i.i.d. frame loss
	Burst       *link.BurstConfig // Gilbert–Elliott burst loss

	// ClockDriftPPM models the mote crystal's frequency error: when the
	// accumulated skew crosses a window period the mote has produced an
	// extra window within the coordinator's slot grid, which the driver
	// injects mid-session.
	ClockDriftPPM float64

	// RebootAt reboots the mote (sequence space restarts at a key
	// frame) before encoding the given window index (0 = never).
	RebootAt int

	// Slowdown multiplies the coordinator's modeled cycle costs during
	// the middle third of the session (≤ 1 = nominal). The solver
	// tolerance is pinned off so every decode spends its full iteration
	// budget — the worst-case window the ladder must absorb.
	Slowdown float64

	// BurstArrival delivers frames in batches of this many windows per
	// slot (0 or 1 = paced arrival), pressuring the admission queue.
	BurstArrival int

	// PanicEvery injects a decode panic on every n-th window (0 =
	// never); the containment path must absorb each one.
	PanicEvery int

	// Transport pressure: QueueLimit bounds the admission queue
	// (default 8) and DecodesPerSlot the decode budget per slot
	// (default 0 = unlimited).
	QueueLimit     int
	DecodesPerSlot int

	// Seed drives the channel model and the signal synthesizer.
	Seed uint64

	// Record, when non-nil, attaches a black-box flight recorder sized
	// by this config to the receive path, plus a quality SLO tracker
	// whose warn/page escalations trigger bundle seals — the
	// bundle-under-fault proving ground. Scenarios that perturb solver
	// costs mid-run (Slowdown > 1) are marked unreproducible so replay
	// refuses to diff them instead of reporting false divergence.
	Record *blackbox.Config

	// QualityBadPRDN overrides the paper's 9 % good/bad boundary for the
	// recorded quality SLO (0 = keep the decoder's Bad verdict). The
	// synthetic chaos signal reconstructs far inside the boundary even
	// under heavy loss, so scenarios proving the SLO→bundle trigger
	// wiring tighten the objective until fault-induced quality erosion —
	// the gap-rate margin on the PRDN estimate — registers as burn.
	QualityBadPRDN float64

	// Spans, when non-nil, captures each decoded window's causal span
	// tree on the harness's slot-granular modeled timeline: link-transit
	// (acquisition end → delivery slot), queue-wait (slots a bounded
	// decode budget deferred the window), the solver rung and
	// reconstruction. The harness has no decode-core serialization, so
	// queue-wait reflects only the DecodesPerSlot deferral — attribution
	// under a solver slowdown names the solver, truthfully.
	Spans *telemetry.CausalTracer
}

func (s Scenario) withDefaults() Scenario {
	if s.Windows == 0 {
		s.Windows = 96
	}
	if s.QueueLimit == 0 {
		s.QueueLimit = 8
	}
	if s.Seed == 0 {
		s.Seed = 0xC4A05
	}
	return s
}

// Report is one scenario's survival accounting.
type Report struct {
	Scenario string
	// Windows counts encoder-produced windows (drift slips included);
	// Decoded the windows reconstructed; DegradedWindows the decodes
	// flagged reduced-quality by the ladder or the solver deadline.
	Windows, Decoded, DegradedWindows int
	// EscapedPanics counts panics that crossed the containment boundary
	// into the harness — the contract requires zero. ContainedPanics
	// counts the ones the decode path absorbed.
	EscapedPanics, ContainedPanics int
	// CRCRejected counts frames the ingest integrity check refused;
	// Shed the windows dropped by the bounded queue; QueuePeak its
	// high-water mark; Reboots the sequence resets resynchronized.
	CRCRejected, Shed, QueuePeak, Reboots int
	// Abandoned counts windows given up for good (loss, shed, desync).
	Abandoned int
	// P99DecodeNs is the 99th-percentile modeled decode time;
	// BoundNs is the packet period it must stay within (a decode
	// slower than its window's arrival cadence falls behind forever).
	P99DecodeNs, BoundNs int64
	// MaxRung is the deepest degradation rung the ladder reached;
	// FinalRung must be back to nominal by session end.
	MaxRung, FinalRung coordinator.Rung
	// FinalHealth is the receiver's health at session end.
	FinalHealth coordinator.Health
	// DriftSkew is the accumulated clock skew; DriftSlips the extra
	// windows the fast mote clock squeezed into the session.
	DriftSkew  time.Duration
	DriftSlips int
	// Bundles lists the diagnostics bundles the flight recorder sealed
	// (empty without Scenario.Record); Recorder is the live recorder so
	// the caller can seal more (e.g. on a contract violation).
	Bundles  []string
	Recorder *blackbox.Recorder
}

// Survived checks the survival contract and returns the first
// violation, or nil when the session degraded gracefully.
func (r *Report) Survived(queueLimit int) error {
	switch {
	case r.EscapedPanics != 0:
		return fmt.Errorf("chaos %s: %d panics escaped containment", r.Scenario, r.EscapedPanics)
	case queueLimit > 0 && r.QueuePeak > queueLimit:
		return fmt.Errorf("chaos %s: queue peak %d exceeds limit %d", r.Scenario, r.QueuePeak, queueLimit)
	case r.Decoded == 0:
		return fmt.Errorf("chaos %s: nothing decoded", r.Scenario)
	case r.P99DecodeNs > r.BoundNs:
		return fmt.Errorf("chaos %s: p99 decode %v exceeds the %v packet period",
			r.Scenario, time.Duration(r.P99DecodeNs), time.Duration(r.BoundNs))
	case r.FinalHealth != coordinator.HealthDecoding:
		return fmt.Errorf("chaos %s: final health %v, want decoding", r.Scenario, r.FinalHealth)
	case r.FinalRung != coordinator.RungNominal:
		return fmt.Errorf("chaos %s: ladder stuck at %v", r.Scenario, r.FinalRung)
	}
	return nil
}

// Matrix returns the acceptance scenario set. Short mode shrinks the
// sessions for CI smoke runs; every fault class stays covered.
func Matrix(short bool) []Scenario {
	windows := 96
	if short {
		windows = 36
	}
	burst := &link.BurstConfig{PGoodBad: 0.05, PBadGood: 0.5}
	return []Scenario{
		{Name: "clean", Windows: windows},
		// ≥1e-4 BER: 8e-4 per byte ≈ 1e-4 per bit.
		{Name: "bitflip", Windows: windows, BitFlipProb: 8e-4},
		{Name: "burst-loss", Windows: windows, Burst: burst},
		{Name: "reboot", Windows: windows, RebootAt: windows / 2},
		{Name: "slowdown-burst", Windows: windows, Slowdown: 2,
			BurstArrival: 4, DecodesPerSlot: 4},
		{Name: "panic-inject", Windows: windows, PanicEvery: 7},
		{Name: "clock-drift", Windows: windows, ClockDriftPPM: 30_000},
		{Name: "kitchen-sink", Windows: windows, BitFlipProb: 4e-4,
			Burst: burst, RebootAt: windows / 2, Slowdown: 2,
			BurstArrival: 2, DecodesPerSlot: 2, PanicEvery: 11,
			ClockDriftPPM: 30_000},
	}
}

// panicDecoder injects a decode panic on every n-th window.
type panicDecoder struct {
	inner coordinator.Decoder
	every int
	calls int
}

func (p *panicDecoder) Decode(pkt *core.Packet) (*coordinator.Result, error) {
	p.calls++
	if p.every > 0 && p.calls%p.every == 0 {
		panic(fmt.Sprintf("chaos: injected fault on window %d", pkt.Seq))
	}
	return p.inner.Decode(pkt)
}

func (p *panicDecoder) Params() core.Params { return p.inner.Params() }

// synthWindow renders a deterministic ECG-like window: baseline
// wander, a sinus component, one QRS-like spike per second, and mild
// sensor noise from the seeded generator.
func synthWindow(w, n int, rg *rng.Xoshiro) []int16 {
	win := make([]int16, n)
	for i := range win {
		t := float64(w*n + i)
		v := 1000 + 120*math.Sin(2*math.Pi*t/600) + 40*math.Sin(2*math.Pi*t/37)
		if i%core.FsMote == core.FsMote/3 {
			v += 900 // R peak
		}
		v += 8 * rg.NormFloat64()
		win[i] = int16(v)
	}
	return win
}

// Run executes one scenario and returns its survival report. An error
// means the harness itself failed (configuration, encode), not that
// the scenario was survived badly — judge that with Report.Survived.
func Run(sc Scenario) (*Report, error) {
	sc = sc.withDefaults()
	params := core.Params{Seed: 0x31, M: 64, N: 128, WaveletLevels: 3, KeyFrameInterval: 8}
	m, err := mote.New(params)
	if err != nil {
		return nil, err
	}
	lcfg := link.DefaultConfig()
	lcfg.BitFlipProb = sc.BitFlipProb
	lcfg.DropProb = sc.DropProb
	lcfg.Burst = sc.Burst
	lcfg.ClockDriftPPM = sc.ClockDriftPPM
	lcfg.Seed = sc.Seed
	lnk, err := link.New(lcfg)
	if err != nil {
		return nil, err
	}
	dec, err := coordinator.NewRealTimeDecoder(params, coordinator.VFP)
	if err != nil {
		return nil, err
	}
	if sc.Slowdown > 1 {
		// Worst-case windows: no early convergence, every decode spends
		// the full iteration budget of its rung.
		tun, err := dec.SolverTuning()
		if err != nil {
			return nil, err
		}
		tun.SolverOptions.Tol = -1
	}
	pd := &panicDecoder{inner: dec, every: sc.PanicEvery}
	tcfg := coordinator.TransportConfig{
		QueueLimit:     sc.QueueLimit,
		DecodesPerSlot: sc.DecodesPerSlot,
	}
	rx := coordinator.NewReceiver(pd, tcfg)

	spans := sc.Spans
	if spans != nil {
		rx.SetSpans(spans)
	}

	var rec *blackbox.Recorder
	var slo *monitor.SLO
	if sc.Record != nil {
		rcfg := *sc.Record
		if rcfg.Session == "" {
			rcfg.Session = sc.Name
		}
		rec = blackbox.NewRecorder(rcfg)
		rec.SetMeta(blackbox.NewSessionMeta(rcfg.Session, dec.Params(), coordinator.VFP, tcfg))
		if sc.Slowdown > 1 {
			rec.MarkUnreproducible("solver costs perturbed mid-run (slowdown scenario)")
		}
		rx.SetRecorder(rec)
		slo = monitor.NewSLO(monitor.SLOConfig{Name: "quality"}, rcfg.Session, nil, nil)
		monitor.WireRecorder(slo, rec)
	}

	rep := &Report{
		Scenario: sc.Name,
		BoundNs:  int64(2 * coordinator.RealTimeBudgetSeconds * float64(time.Second)),
	}
	rg := rng.New(sc.Seed ^ 0xEC6)
	n := dec.Params().N
	windowNs := time.Duration(float64(n) / core.FsMote * float64(time.Second))
	slow := coordinator.DefaultCosts()
	slow.VFPCyclesPerMAC *= sc.Slowdown
	slow.NEONCyclesPerMAC *= sc.Slowdown
	slowFrom, slowTo := sc.Windows/3, 2*sc.Windows/3

	// Span-tree timeline model: modelNow is the slot-granular modeled
	// time of the deliver pass currently scoring; planArrive maps each
	// sequence to its scheduled delivery-slot end. The harness has no
	// per-frame clock, so leaves tile [acquisition end, decode end) at
	// slot granularity and the recorded latency is their sum.
	reconstructNs := int64(coordinator.DefaultCosts().IterationTime(dec.Params(), coordinator.VFP))
	var modelNow int64
	planArrive := map[uint32]int64{}
	lastRung := coordinator.RungNominal

	var decodeNs []int64
	score := func(out []coordinator.Decoded) {
		for _, d := range out {
			rep.Decoded++
			decodeNs = append(decodeNs, int64(d.Res.ModeledTime))
			if d.Res.Degraded {
				rep.DegradedWindows++
			}
			if d.Res.Rung > rep.MaxRung {
				rep.MaxRung = d.Res.Rung
			}
			if spans != nil {
				if wt := spans.Lookup(d.Seq); wt != nil {
					acqEnd := wt.FrontierNs()
					arrive := planArrive[d.Seq]
					if arrive < acqEnd {
						arrive = acqEnd
					}
					decodeAt := modelNow
					if decodeAt < arrive {
						decodeAt = arrive
					}
					wt.Leaf(telemetry.StageLinkTransit, acqEnd, arrive-acqEnd)
					if decodeAt > arrive {
						wt.Leaf(telemetry.StageQueueWait, arrive, decodeAt-arrive)
					}
					fistaNs := int64(d.Res.ModeledTime)
					wt.SolverLeaf(d.Res.Rung.SolverStage(), decodeAt, fistaNs, int(d.Res.Rung))
					wt.Leaf(telemetry.StageReconstruct, decodeAt+fistaNs, reconstructNs)
					if d.Res.Rung != lastRung {
						wt.MarkRungChange(decodeAt, int(d.Res.Rung))
					}
					wt.Mark(d.SpanFlags())
					spans.Finish(wt, int(d.Res.Rung), wt.LeafSumNs())
				}
				lastRung = d.Res.Rung
			}
			if slo != nil {
				bad := d.Bad
				if sc.QualityBadPRDN > 0 {
					bad = d.EstPRDN > sc.QualityBadPRDN
				}
				// Modeled timeline: one window period per decode keeps
				// the SLO transition timestamps deterministic.
				slo.Observe(int64(rep.Decoded)*int64(windowNs), bad)
			}
		}
	}
	// safely runs one receiver interaction behind a containment check:
	// a panic reaching this recover escaped the survival layer.
	safely := func(f func()) {
		defer func() {
			if p := recover(); p != nil {
				rep.EscapedPanics++
			}
		}()
		f()
	}

	var pending [][]byte
	burstEvery := sc.BurstArrival
	if burstEvery < 1 {
		burstEvery = 1
	}
	var skewConsumed time.Duration
	encode := func(w int) error {
		mr, err := m.EncodeWindow(synthWindow(w, n, rg))
		if err != nil {
			return fmt.Errorf("chaos %s: encoding window %d: %w", sc.Name, w, err)
		}
		rep.Windows++
		if spans != nil {
			// Acquisition of the k-th encoded window (drift slips
			// included) ends at k·T; delivery lands at the end of the
			// next batch slot.
			wt := spans.Begin(mr.Packet.Seq)
			wt.Root(int64(rep.Windows) * int64(windowNs))
			planArrive[mr.Packet.Seq] = int64((w+burstEvery)/burstEvery*burstEvery) * int64(windowNs)
		}
		blob, err := mr.Packet.Marshal()
		if err != nil {
			return err
		}
		frames, _ := lnk.TransmitMulti(blob)
		pending = append(pending, frames...)
		return nil
	}
	deliver := func() {
		frames := pending
		pending = nil
		safely(func() {
			for _, fr := range frames {
				if out, err := rx.IngestFrame(fr); err == nil {
					score(out)
				}
			}
			_, late := rx.EndSlot()
			score(late)
		})
	}

	for w := 0; w < sc.Windows; w++ {
		if sc.Slowdown > 1 {
			if w == slowFrom {
				dec.SetCosts(slow)
			}
			if w == slowTo {
				dec.SetCosts(coordinator.DefaultCosts())
			}
		}
		if sc.RebootAt > 0 && w == sc.RebootAt {
			m.Reboot()
		}
		if err := encode(w); err != nil {
			return nil, err
		}
		// A fast mote clock squeezes extra windows into the slot grid.
		if skew := lnk.EndWindow(windowNs); skew-skewConsumed >= windowNs {
			skewConsumed += windowNs
			rep.DriftSlips++
			if err := encode(w); err != nil {
				return nil, err
			}
		}
		if (w+1)%burstEvery == 0 {
			modelNow = int64(w+1) * int64(windowNs)
			deliver()
		}
	}
	// Session end: flush the reorder model, deliver stragglers, close.
	modelNow = int64(sc.Windows) * int64(windowNs)
	pending = append(pending, lnk.Flush()...)
	deliver()
	safely(func() { score(rx.Close()) })

	st := rx.Stats()
	rep.ContainedPanics = st.DecodePanics
	rep.CRCRejected = st.Rejected
	rep.Shed = st.Shed
	rep.QueuePeak = st.QueuePeak
	rep.Reboots = st.Reboots
	rep.Abandoned = st.Abandoned
	rep.FinalHealth = rx.Health()
	rep.FinalRung = dec.Rung()
	rep.DriftSkew = lnk.DriftSkew()
	if rec != nil {
		rep.Recorder = rec
		rep.Bundles = rec.Bundles()
	}
	if len(decodeNs) > 0 {
		sort.Slice(decodeNs, func(i, j int) bool { return decodeNs[i] < decodeNs[j] })
		idx := (len(decodeNs)*99 + 99) / 100
		if idx > len(decodeNs) {
			idx = len(decodeNs)
		}
		rep.P99DecodeNs = decodeNs[idx-1]
	}
	return rep, nil
}
