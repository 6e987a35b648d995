//csecg:nondet the benchmark times the program on the wall clock

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"csecg"
	"csecg/internal/blackbox"
	"csecg/internal/coordinator"
	"csecg/internal/core"
	"csecg/internal/link"
	"csecg/internal/monitor"
	"csecg/internal/mote"
	"csecg/internal/telemetry"
)

// span is one timed layer call. ID is the window sequence number the
// call worked on; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     uint32 `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of a traced pass in memory; write saves them
// once the pass has ended.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, id uint32) int32 {
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) {
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfNs returns every span's duration minus the time its direct
// children cover.
func (t *tracer) selfNs() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// decodeSample is what the timing decoder saw of one Decode call.
type decodeSample struct {
	ns       int64
	allocObj uint64
	allocB   uint64
	iters    int
	cold     bool
	conv     bool
}

// timedDecoder is the coordinator.Decoder handed to NewReceiver: it
// opens a span around every Decode of the wrapped RealTimeDecoder and
// reads the allocation counters on both sides of it. A positive slow
// busy-waits that share of each decode's time on top of it (the
// sensitivity self-test's injected slowdown).
type timedDecoder struct {
	dec     *coordinator.RealTimeDecoder
	tr      *tracer
	slow    float64
	samples []decodeSample
	nan     bool
	lastMV  []float32
}

func (d *timedDecoder) Params() core.Params { return d.dec.Params() }

func (d *timedDecoder) Decode(pkt *core.Packet) (*coordinator.Result, error) {
	sp := d.tr.begin("decode", pkt.Seq)
	before := readCounters()
	t0 := time.Now()
	res, err := d.dec.Decode(pkt)
	el := time.Since(t0)
	after := readCounters()
	if d.slow > 0 {
		for until := time.Now().Add(time.Duration(d.slow * float64(el))); time.Now().Before(until); {
		}
	}
	d.tr.end(sp)
	if err != nil {
		return nil, err
	}
	delta := after.sub(before)
	d.samples = append(d.samples, decodeSample{
		ns: int64(el), allocObj: delta.allocObj, allocB: delta.allocB,
		iters: res.Iterations, cold: res.StageIters != nil, conv: res.Converged,
	})
	for _, v := range res.MV {
		if math.IsNaN(float64(v)) {
			d.nan = true
			break
		}
	}
	d.lastMV = res.MV
	return res, nil
}

// tracedPass drives sessions from the public constructors the way
// RunStream wires them (mote, link, NewReceiver, the same NACK service
// loop), so it decodes the same windows with the same iteration counts,
// with a span around every layer call.
type tracedPass struct {
	w    workload
	tr   *tracer
	slow float64

	out     outcome
	dec     []*timedDecoder
	kernels []*kernelBench
	params  core.Params
	deltas  []*core.Packet // captured delta packets for the Huffman probe
	winSt   []monitor.WindowStatus
	slotSt  []monitor.SlotStatus
	lastReg *telemetry.Registry
	srv     *monitor.Server
}

const maxCapturedDeltas = 64

func newTracedPass(w workload, slow float64) *tracedPass {
	return &tracedPass{w: w, tr: newTracer(), slow: slow}
}

// run drives n sessions; monitored workloads get the same monitor
// plane and per-slot scraper as the untraced pass.
func (tp *tracedPass) run(seed uint64, n int) error {
	if tp.w.monitored {
		tp.srv = monitor.NewServer(nil)
		tp.out.scrapes = startScraper(tp.srv.Handler(), n*tp.w.windows)
		defer tp.out.scrapes.stop()
	}
	for i := 0; i < n; i++ {
		ts, err := tp.open(seed, i)
		if err == nil {
			err = ts.stream()
		}
		if err != nil {
			return fmt.Errorf("traced session %d: %w", i, err)
		}
	}
	return nil
}

// tracedSession is one session of a traced pass, advanced a slot at a
// time by step.
type tracedSession struct {
	tp      *tracedPass
	tr      *tracer
	label   string
	start   time.Time
	root    int32
	samples []int16
	n       int

	m    *mote.Model
	lnk  *link.Link
	ctrl *link.Link
	td   *timedDecoder
	kb   *kernelBench
	rx   *coordinator.Receiver
	ses  *monitor.Session
	obs  slotObserver

	windows int
}

// open builds session i from the public constructors, wired and
// instrumented the way RunStream wires them.
func (tp *tracedPass) open(seed uint64, i int) (*tracedSession, error) {
	tr := tp.tr
	cfg := tp.w.config(seed, i)
	ts := &tracedSession{tp: tp, tr: tr, label: fmt.Sprintf("session %d (record %s)", i, cfg.RecordID), start: time.Now()}
	ts.root = tr.begin("session", uint32(i))

	rec, err := csecg.RecordByID(cfg.RecordID)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("synth", 0)
	ts.samples, err = rec.Channel256(cfg.Seconds, cfg.Channel)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if ts.m, err = mote.New(cfg.Params); err != nil {
		return nil, err
	}
	sp = tr.begin("construct", 0)
	rtd, err := coordinator.NewRealTimeDecoder(cfg.Params, cfg.Mode)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if ts.lnk, err = link.New(cfg.Link); err != nil {
		return nil, err
	}
	if cfg.Transport.NACK {
		if err := ts.m.EnableRetransmitBuffer(mote.DefaultRetransmitRing); err != nil {
			return nil, err
		}
		ctrlCfg := cfg.Link
		ctrlCfg.Seed = cfg.Link.Seed ^ 0x9E3779B97F4A7C15 // as RunStream decorrelates the uplink
		if cfg.ControlLink != nil {
			ctrlCfg = *cfg.ControlLink
		}
		if ts.ctrl, err = link.New(ctrlCfg); err != nil {
			return nil, err
		}
	}
	ts.td = &timedDecoder{dec: rtd, tr: tr, slow: tp.slow}
	tp.dec = append(tp.dec, ts.td)
	tp.params = rtd.Params()
	if ts.kb, err = newKernelBench(tp.params); err != nil {
		return nil, err
	}
	tp.kernels = append(tp.kernels, ts.kb)
	ts.n = tp.params.N
	ts.rx = coordinator.NewReceiver(ts.td, cfg.Transport)

	// RunStream instruments every component, with a private registry
	// when the caller passes none.
	reg := telemetry.NewRegistry()
	tp.lastReg = reg
	if tp.w.monitored {
		recorder := blackbox.NewRecorder(blackbox.Config{Session: ts.label})
		recorder.SetMeta(blackbox.NewSessionMeta("", rtd.Params(), rtd.Mode(), cfg.Transport))
		recorder.AttachRegistry(reg)
		ts.rx.SetRecorder(recorder)
		ts.ses = monitor.NewSession(monitor.SessionConfig{Name: ts.label, Registry: reg, Recorder: recorder}, nil)
		tp.srv.Attach(ts.ses)
	}
	ts.m.Instrument(reg)
	ts.lnk.Instrument(reg, "link")
	if ts.ctrl != nil {
		ts.ctrl.Instrument(reg, "ctrl")
	}
	ts.rx.Instrument(reg)
	rtd.Instrument(reg, nil)
	return ts, nil
}

// stream steps the session to its end and closes it.
func (ts *tracedSession) stream() error {
	for {
		more, err := ts.step()
		if err != nil {
			return err
		}
		if !more {
			return ts.close()
		}
	}
}

func (ts *tracedSession) collect(out []coordinator.Decoded) {
	for _, d := range out {
		st := monitor.WindowStatus{
			Seq: d.Seq, EstPRDN: d.EstPRDN, Bad: d.Bad, Residual: d.Res.ResidualNorm,
			Iterations: d.Res.Iterations, Converged: d.Res.Converged, Degraded: d.Res.Degraded,
			Rung: d.Res.Rung,
			// The traced pass keeps no modeled session timeline; the
			// modeled decode time stands in for the window latency.
			LatencyNs: int64(d.Res.ModeledTime),
		}
		ts.obs.OnWindow(st)
		if ts.ses != nil {
			sp := ts.tr.begin("observer", d.Seq)
			ts.ses.OnWindow(st)
			ts.tr.end(sp)
		}
		ts.tp.winSt = append(ts.tp.winSt, st)
	}
}

func (ts *tracedSession) deliver(frames [][]byte, seq uint32) error {
	for _, f := range frames {
		sp := ts.tr.begin("receiver", seq)
		out, err := ts.rx.IngestFrame(f)
		ts.tr.end(sp)
		if err != nil {
			return err
		}
		ts.collect(out)
	}
	return nil
}

func (ts *tracedSession) transmit(p *core.Packet) ([][]byte, error) {
	sp := ts.tr.begin("transmit", p.Seq)
	defer ts.tr.end(sp)
	blob, err := p.Marshal()
	if err != nil {
		return nil, err
	}
	frames, _ := ts.lnk.TransmitMulti(blob)
	return frames, nil
}

// serveControl carries one control packet over the uplink and has the
// mote act on it, as RunStream does.
func (ts *tracedSession) serveControl(c *core.Packet) error {
	sp := ts.tr.begin("control", c.Seq)
	defer ts.tr.end(sp)
	up, _, err := ts.ctrl.TransmitPacket(c)
	if err != nil || up == nil {
		return err
	}
	switch up.Kind {
	case core.KindNack:
		first, count, err := core.NackRange(up)
		if err != nil {
			return err
		}
		for k := 0; k < count; k++ {
			pkt, ok := ts.m.Retransmit(first + uint32(k))
			if !ok {
				continue
			}
			frames, err := ts.transmit(pkt)
			if err != nil {
				return err
			}
			if err := ts.deliver(frames, pkt.Seq); err != nil {
				return err
			}
		}
	case core.KindKeyRequest:
		ts.m.RequestKeyFrame()
	}
	return nil
}

// step runs one slot: encode, transmit, receive and decode, end the
// slot, serve control traffic. It reports whether a window remains.
func (ts *tracedSession) step() (bool, error) {
	off := ts.windows * ts.n
	if off+ts.n > len(ts.samples) {
		return false, nil
	}
	tr, tp := ts.tr, ts.tp
	seq := uint32(ts.windows)
	slot := tr.begin("slot", seq)
	sp := tr.begin("encode", seq)
	mr, err := ts.m.EncodeWindow(ts.samples[off : off+ts.n])
	tr.end(sp)
	if err != nil {
		return false, err
	}
	ts.windows++
	if mr.Packet.Kind == core.KindDelta && len(tp.deltas) < maxCapturedDeltas {
		tp.deltas = append(tp.deltas, mr.Packet.Clone())
	}
	frames, err := ts.transmit(mr.Packet)
	if err != nil {
		return false, err
	}
	if err := ts.deliver(frames, seq); err != nil {
		return false, err
	}
	sp = tr.begin("receiver", seq)
	ctrlPkts, late := ts.rx.EndSlot()
	tr.end(sp)
	ts.collect(late)
	for _, c := range ctrlPkts {
		if ts.ctrl == nil {
			continue
		}
		if err := ts.serveControl(c); err != nil {
			return false, err
		}
	}
	st := ts.rx.Stats()
	slotSt := monitor.SlotStatus{
		Slot: ts.windows, Windows: ts.windows, Health: ts.rx.Health(), Decoded: st.Decoded,
		Abandoned: st.Abandoned, Gaps: st.Gaps, Recoveries: st.Recoveries, GapRate: ts.rx.GapRate(),
	}
	if ts.ses != nil {
		sp := tr.begin("observer", seq)
		ts.ses.OnSlot(slotSt)
		tr.end(sp)
	}
	tp.slotSt = append(tp.slotSt, slotSt)
	tr.end(slot)
	if ts.windows == 1 {
		ts.obs.first = readCounters()
	}
	now := time.Now()
	ts.obs.slots = append(ts.obs.slots, now)
	if tp.out.scrapes != nil {
		tp.out.scrapes.tick(now)
	}
	if ts.td.lastMV != nil {
		ts.kb.sample(ts.td.lastMV)
	}
	return true, nil
}

// close flushes the link, closes the receiver and folds the session
// into the pass's outcome.
func (ts *tracedSession) close() error {
	tr := ts.tr
	defer tr.end(ts.root)
	if ts.ses != nil {
		defer ts.ses.Finish()
	}
	if ts.windows == 0 {
		return fmt.Errorf("record shorter than one window")
	}
	if err := ts.deliver(ts.lnk.Flush(), uint32(ts.windows)); err != nil {
		return err
	}
	sp := tr.begin("receiver", uint32(ts.windows))
	ts.collect(ts.rx.Close())
	tr.end(sp)
	end := readCounters()

	// Quality is scored by RunStream in the untraced pass; the traced
	// pass checks its own output for NaN and completeness.
	ts.obs.nan = ts.obs.nan || ts.td.nan
	st := ts.rx.Stats()
	ts.tp.out.addSession(ts.tp.w, ts.label, ts.start, &ts.obs, end, sessionReport{
		windows: ts.windows, decoded: st.Decoded, recovery: st.MeanRecovery(),
	})
	return nil
}

// runTraced runs the workload untraced through RunStream, then the same
// sessions traced, checks that both decoded the same windows with the
// same iteration total, and reports the per-layer metrics. Each pass
// gets half of the run's nominal seconds.
func runTraced(w workload, seed uint64, seconds float64) (*result, error) {
	n := w.sessions(seconds / 2)
	base, err := streamSessions(w, seed, n)
	if err != nil {
		return nil, err
	}
	tp := newTracedPass(w, 0)
	if err := tp.run(seed, n); err != nil {
		return nil, err
	}
	traced := &tp.out
	if traced.decoded != base.decoded || traced.iters != base.iters {
		base.failf("traced run decoded %d windows in %d iterations, untraced %d in %d",
			traced.decoded, traced.iters, base.decoded, base.iters)
	}
	base.checks = append(base.checks, traced.checks...)
	if err := tp.tr.write(filepath.Join(".bench_build", "traces"), fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	m := map[string]metric{}
	put := func(name, unit string, v float64, n int) { m[name] = metric{Value: v, Unit: unit, samples: n} }

	// Decoder, from the timing wrapper around every Decode.
	var decMs, iters []float64
	var decNs, allocObj, allocB, coldIters float64
	var totalIters, cold, unconv int
	for _, d := range tp.dec {
		for _, s := range d.samples {
			decMs = append(decMs, float64(s.ns)/1e6)
			iters = append(iters, float64(s.iters))
			decNs += float64(s.ns)
			allocObj += float64(s.allocObj)
			allocB += float64(s.allocB)
			totalIters += s.iters
			if s.cold {
				cold++
				coldIters += float64(s.iters)
			}
			if !s.conv {
				unconv++
			}
		}
	}
	nd := len(decMs)
	if nd == 0 || totalIters == 0 {
		return nil, fmt.Errorf("traced run decoded nothing")
	}
	put("coordinator.decode_ms_p50", "ms", median(decMs), nd)
	put("coordinator.decode_ms_p95", "ms", quantile(decMs, 0.95), nd)
	put("coordinator.decode_allocs_per_window", "count", allocObj/float64(nd), nd)
	put("coordinator.decode_kb_per_window", "KB", allocB/1024/float64(nd), nd)
	put("solver.iterations_per_window", "count", mean(iters), nd)
	put("solver.us_per_iteration", "us", decNs/1e3/float64(totalIters), totalIters)
	if cold > 0 {
		coldIters /= float64(cold)
	}
	put("solver.cold_iterations_per_window", "count", coldIters, cold)
	put("solver.unconverged_pct", "%", 100*float64(unconv)/float64(nd), nd)

	// Layer spans.
	byName := map[string][]float64{}
	for _, s := range tp.tr.spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur()))
	}
	put("coordinator.construct_ms", "ms", mean(byName["construct"])/1e6, len(byName["construct"]))
	put("ecg.synth_ms_per_session", "ms", mean(byName["synth"])/1e6, len(byName["synth"]))
	put("mote.encode_us_p50", "us", median(byName["encode"])/1e3, len(byName["encode"]))
	var txNs float64
	for _, d := range byName["transmit"] {
		txNs += d
	}
	put("link.transmit_us_per_window", "us", txNs/1e3/float64(traced.windows), traced.windows)
	rxSelf := receiverSelfUs(tp.tr)
	put("coordinator.receiver_self_us_p50", "us", median(rxSelf), len(rxSelf))

	// Kernels sampled after every slot, and the share of decode time
	// they account for at the run's iteration count.
	kb := tp.kernels[len(tp.kernels)-1]
	for _, k := range tp.kernels[:len(tp.kernels)-1] {
		for name, us := range k.us { //csecg:orderok pooled samples feed a median
			kb.us[name] = append(kb.us[name], us...)
		}
	}
	ks := len(kb.us["phi"])
	if ks == 0 {
		return nil, fmt.Errorf("no kernel samples")
	}
	phi, phiT, synth, analysis := kb.medianUs("phi"), kb.medianUs("phiT"), kb.medianUs("synth"), kb.medianUs("analysis")
	put("sensing.phi_us", "us", phi, ks)
	put("sensing.phit_us", "us", phiT, ks)
	put("wavelet.synthesis_us", "us", synth, ks)
	put("wavelet.analysis_us", "us", analysis, ks)
	put("linalg.shrink_us", "us", kb.medianUs("shrink"), ks)
	put("linalg.momentum_us", "us", kb.medianUs("momentum"), ks)
	put("linalg.norm2_us", "us", kb.medianUs("norm2"), ks)
	wAllocs, cAllocs := kb.allocs()
	put("wavelet.allocs_per_call", "count", wAllocs, 200)
	put("linalg.compose_allocs_per_apply", "count", cAllocs, 200)
	share := func(us float64) float64 { return float64(totalIters) * us * 1e3 / decNs }
	sPhi, sPsi, sVec := share(phi+phiT), share(synth+analysis), share(kb.vectorPerIterUs())
	put("solver.share_phi", "ratio", sPhi, nd)
	put("solver.share_psi", "ratio", sPsi, nd)
	put("solver.share_vector", "ratio", sVec, nd)
	put("solver.share_unattributed", "ratio", 1-sPhi-sPsi-sVec, nd)

	huff, err := probeHuffman(tp.params, tp.deltas)
	if err != nil {
		return nil, err
	}
	put("huffman.decode_us_per_packet", "us", huff, len(tp.deltas))

	// Monitor plane: the traced pass's own scraper on the monitored
	// workload, a replay probe elsewhere.
	scr, e2eScr := tp.out.scrapes, base.scrapes
	if scr == nil {
		scr = probeMonitor(tp.lastReg, tp.winSt, tp.slotSt)
		e2eScr = scr
	}
	put("monitor.metrics_scrape_ms_p50", "ms", median(scr.serviceMs["/metrics"]), len(scr.serviceMs["/metrics"]))
	put("monitor.sessions_scrape_ms_p50", "ms", median(scr.serviceMs["/sessions"]), len(scr.serviceMs["/sessions"]))
	put("monitor.metrics_bytes", "bytes", median(scr.metricsLen), len(scr.metricsLen))
	put("monitor.scrape_lag_ms_p95", "ms", quantile(scr.lagMs, 0.95), len(scr.lagMs))
	put("scrape_ms_p50", "ms", median(e2eScr.latencyMs), len(e2eScr.latencyMs))
	put("scrape_ms_p95", "ms", quantile(e2eScr.latencyMs, 0.95), len(e2eScr.latencyMs))

	tAllocs, tOver, err := probeTelemetry(w, seed)
	if err != nil {
		return nil, err
	}
	put("telemetry.observed_allocs_per_window", "count", tAllocs, 32)
	put("telemetry.observed_overhead_pct", "%", tOver, 32)

	// Untraced-pass figures that cannot carry an end-to-end bound: the
	// slot tail and the mean rate move with hypervisor steal by about
	// the largest bound allowed, and the rest are 0 or absent on some
	// workloads.
	put("slot_ms_p95", "ms", quantile(base.slotMs, 0.95), len(base.slotMs))
	put("windows_per_s", "1/s", float64(base.rateWindows)/base.streamWall.Seconds(), base.rateWindows)
	put("runtime.gc_cycles_per_window", "count", float64(base.stream.gcs)/float64(base.streamWindows), base.streamWindows)
	put("windows_failed_ratio", "ratio", float64(base.windows-base.decoded)/float64(base.windows), base.windows)
	put("gap_recovery_slots_mean", "slots", mean(base.recov), len(base.recov))
	tracedSlots := slotSpanMs(tp.tr)
	put("trace.slot_overhead_ms", "ms", median(tracedSlots)-median(base.slotMs), len(tracedSlots))

	r := base.result(m)
	r.Attempted += traced.windows
	r.Failed += traced.windows - traced.decoded
	if scr != e2eScr {
		r.Attempted += scr.attempted
		r.Failed += scr.failed
	}
	return r, nil
}

// slotSpanMs returns the traced pass's slot durations, leaving out each
// session's first slot as the end-to-end slot metrics do. Work done
// between slots, such as the kernel sampling, falls outside them.
func slotSpanMs(tr *tracer) []float64 {
	var ms []float64
	for _, s := range tr.spans {
		if s.Name == "slot" && s.ID > 0 {
			ms = append(ms, float64(s.dur())/1e6)
		}
	}
	return ms
}

// receiverSelfUs returns, per slot, the time spent in receiver calls
// (IngestFrame, EndSlot) minus the decodes nested in them, in µs.
func receiverSelfUs(tr *tracer) []float64 {
	self := tr.selfNs()
	perSlot := map[int32]int64{}
	var order []int32
	for i, s := range tr.spans {
		if s.Name == "slot" {
			perSlot[int32(i)] = 0
			order = append(order, int32(i))
			continue
		}
		if s.Name != "receiver" {
			continue
		}
		for p := s.Parent; p >= 0; p = tr.spans[p].Parent {
			if tr.spans[p].Name == "slot" {
				perSlot[p] += self[i]
				break
			}
		}
	}
	out := make([]float64, 0, len(order))
	for _, i := range order {
		out = append(out, float64(perSlot[i])/1e3)
	}
	return out
}
