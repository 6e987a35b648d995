//csecg:nondet the benchmark times the program on the wall clock

package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"csecg"
	"csecg/internal/monitor"
)

// slotObserver is the benchmark's monitor.Observer: it timestamps every
// slot callback of one session on the wall clock and forwards to the
// session's monitor.Session, if any.
type slotObserver struct {
	next     monitor.Observer
	scrapes  *scraper // ticked once per slot, when set
	slots    []time.Time
	windows  []time.Time
	lastSlot int
	iters    int64
	nan      bool
	// first holds the process counters read at the first slot callback,
	// before its timestamp, so the reads fall outside the timed slots;
	// flushFirst forces a GC before that read for exact object counts.
	first      counters
	flushFirst bool
}

func (o *slotObserver) OnWindow(s monitor.WindowStatus) {
	if o.next != nil {
		o.next.OnWindow(s)
	}
	o.windows = append(o.windows, time.Now())
	o.iters += int64(s.Iterations)
	if math.IsNaN(s.EstPRDN) || math.IsNaN(s.Residual) {
		o.nan = true
	}
}

func (o *slotObserver) OnSlot(s monitor.SlotStatus) {
	if o.next != nil {
		o.next.OnSlot(s)
	}
	if s.Slot == o.lastSlot {
		return // RunStream repeats the last slot once the session closes
	}
	o.lastSlot = s.Slot
	if len(o.slots) == 0 {
		if o.flushFirst {
			runtime.GC()
		}
		o.first = readCounters()
	}
	now := time.Now()
	o.slots = append(o.slots, now)
	if o.scrapes != nil {
		o.scrapes.tick(now)
	}
}

// counters are the process-wide CPU, allocation and GC totals.
type counters struct {
	cpu      time.Duration
	allocB   uint64
	allocObj uint64
	gcs      uint64
}

var counterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// readCounters reads getrusage (user+sys) and the runtime's cumulative
// allocation and GC counters; runtime/metrics does not stop the world.
func readCounters() counters {
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := make([]metrics.Sample, len(counterSamples))
	copy(s, counterSamples)
	metrics.Read(s)
	return counters{cpu: cpu, allocB: s[0].Value.Uint64(), allocObj: s[1].Value.Uint64(), gcs: s[2].Value.Uint64()}
}

func (c counters) sub(o counters) counters {
	return counters{cpu: c.cpu - o.cpu, allocB: c.allocB - o.allocB, allocObj: c.allocObj - o.allocObj, gcs: c.gcs - o.gcs}
}

// outcome accumulates the sessions of one run, traced or not.
type outcome struct {
	slotMs  []float64 // every slot but each session's first
	setupS  []float64 // RunStream call (or session start) to first slot
	prd     []float64 // session MeanPRDN
	wireCR  []float64
	recov   []float64 // session Transport.MeanRecovery()
	windows int       // encoded
	decoded int
	iters   int64

	streamWall    time.Duration // first to last slot, summed over sessions
	rateWindows   int           // windows decoded inside those spans
	streamWindows int           // windows decoded from the first slot on
	stream        counters      // process counters over streaming

	scrapes *scraper
	checks  []string // failed output checks
}

func (o *outcome) failf(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

// sessionReport is what a finished session reports; scored is false
// for the traced pass, which leaves quality scoring to RunStream.
type sessionReport struct {
	windows, decoded   int
	prd, worst, wireCR float64
	recovery           float64
	scored             bool
}

// addSession folds one finished session into the outcome and runs the
// per-session output checks.
func (o *outcome) addSession(w workload, label string, start time.Time, obs *slotObserver, end counters, r sessionReport) {
	o.windows += r.windows
	o.decoded += r.decoded
	o.iters += obs.iters
	o.recov = append(o.recov, r.recovery)
	if r.scored {
		o.prd = append(o.prd, r.prd)
		o.wireCR = append(o.wireCR, r.wireCR)
	}
	if len(obs.slots) > 0 {
		first, last := obs.slots[0], obs.slots[len(obs.slots)-1]
		o.setupS = append(o.setupS, first.Sub(start).Seconds())
		for i := 1; i < len(obs.slots); i++ {
			o.slotMs = append(o.slotMs, float64(obs.slots[i].Sub(obs.slots[i-1]))/1e6)
		}
		o.streamWall += last.Sub(first)
		for _, t := range obs.windows {
			if t.After(first) {
				o.streamWindows++
				if !t.After(last) {
					o.rateWindows++
				}
			}
		}
		d := end.sub(obs.first)
		o.stream.cpu += d.cpu
		o.stream.allocB += d.allocB
		o.stream.allocObj += d.allocObj
		o.stream.gcs += d.gcs
	}
	switch {
	case obs.nan || math.IsNaN(r.prd) || math.IsNaN(r.worst) || math.IsNaN(r.wireCR):
		o.failf("%s: NaN in the decoded output", label)
	case !w.monitored && r.decoded < r.windows:
		o.failf("%s: clean link decoded %d of %d windows", label, r.decoded, r.windows)
	case r.scored && r.prd > w.prdCeiling:
		o.failf("%s: mean PRDN %.2f%% above the workload ceiling %.0f%%", label, r.prd, w.prdCeiling)
	case r.scored && r.decoded > 1 && r.prd <= 0:
		o.failf("%s: no PRDN scored", label)
	}
}

// streamSessions runs n sessions of the workload through csecg.RunStream
// exactly as csecg-monitor and the examples run it.
func streamSessions(w workload, seed uint64, n int) (*outcome, error) {
	o := &outcome{}
	var srv *monitor.Server
	if w.monitored {
		srv = monitor.NewServer(nil)
		o.scrapes = startScraper(srv.Handler(), n*w.windows)
		defer o.scrapes.stop()
	}
	for i := 0; i < n; i++ {
		cfg := w.config(seed, i)
		label := fmt.Sprintf("session %d (record %s)", i, cfg.RecordID)
		obs := &slotObserver{scrapes: o.scrapes}
		var ses *monitor.Session
		if w.monitored {
			ses = attachSinks(&cfg, label)
			srv.Attach(ses)
			obs.next = ses
		}
		cfg.Observer = obs
		start := time.Now()
		rep, err := csecg.RunStream(cfg)
		end := readCounters()
		if ses != nil {
			ses.Finish()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		o.addSession(w, label, start, obs, end, sessionReport{
			windows: rep.Windows, decoded: rep.Decoded,
			prd: rep.MeanPRDN, worst: rep.WorstPRDN, wireCR: rep.WireCR,
			recovery: rep.Transport.MeanRecovery(), scored: true,
		})
	}
	return o, nil
}

// attachSinks gives a session the csecg-monitor telemetry: a registry,
// a causal span tracer and a flight recorder (no bundle sink), all
// feeding a monitor.Session.
func attachSinks(cfg *csecg.StreamConfig, label string) *monitor.Session {
	cfg.Metrics = csecg.NewMetrics()
	cfg.Spans = csecg.NewSpanTracer(csecg.SpanTracerConfig{Label: label})
	cfg.Recorder = csecg.NewFlightRecorder(csecg.FlightRecorderConfig{Session: label})
	return monitor.NewSession(monitor.SessionConfig{
		Name:     label,
		Registry: cfg.Metrics,
		Recorder: cfg.Recorder,
		Spans:    cfg.Spans,
	}, nil)
}

func runEndToEnd(w workload, seed uint64, seconds float64) (*result, error) {
	o, err := streamSessions(w, seed, w.sessions(seconds))
	if err != nil {
		return nil, err
	}
	if len(o.slotMs) == 0 || o.streamWindows == 0 {
		return nil, fmt.Errorf("no streamed slots to time")
	}
	m := map[string]metric{}
	put := func(name, unit string, v float64, n int) { m[name] = metric{Value: v, Unit: unit, samples: n} }
	put("slot_ms_p50", "ms", median(o.slotMs), len(o.slotMs))
	put("cpu_share_pct", "%", 100*o.stream.cpu.Seconds()/(float64(o.streamWindows)*2), o.streamWindows)
	put("setup_s", "s", median(o.setupS), len(o.setupS))
	put("alloc_mb_per_window", "MB", float64(o.stream.allocB)/1e6/float64(o.streamWindows), o.streamWindows)
	put("prd_mean_pct", "%", mean(o.prd), len(o.prd))
	put("wire_cr_pct", "%", mean(o.wireCR), len(o.wireCR))
	return o.result(m), nil
}

// result assembles the output line: every encoded window and every
// scrape is an attempted operation; undecoded windows and non-200
// scrapes fail.
func (o *outcome) result(m map[string]metric) *result {
	for _, c := range o.checks {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %s\n", c)
	}
	r := &result{
		Correct:   len(o.checks) == 0,
		Attempted: o.windows,
		Failed:    o.windows - o.decoded,
		Metrics:   m,
	}
	if o.decoded > 0 {
		r.iterations = float64(o.iters) / float64(o.decoded)
	}
	for _, p := range o.prd {
		r.worstPRD = max(r.worstPRD, p)
	}
	if o.scrapes != nil {
		r.Attempted += o.scrapes.attempted
		r.Failed += o.scrapes.failed
	}
	return r
}
