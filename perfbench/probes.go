//csecg:nondet the benchmark times the program on the wall clock

package main

import (
	"fmt"
	"runtime"
	"time"

	"csecg"
	"csecg/internal/core"
	"csecg/internal/huffman"
	"csecg/internal/linalg"
	"csecg/internal/monitor"
	"csecg/internal/sensing"
	"csecg/internal/telemetry"
	"csecg/internal/wavelet"
)

// perCallUs times calls of f and returns microseconds per call.
func perCallUs(calls int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		f()
	}
	return float64(time.Since(t0)) / 1e3 / float64(calls)
}

// allocsPerCall counts heap objects f allocates per call. The runtime
// counts small objects a span at a time until a GC flushes its per-P
// caches, so a GC on each side makes the count exact.
func allocsPerCall(f func()) float64 {
	const calls = 200
	f()
	runtime.GC()
	before := readCounters()
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.GC()
	return float64(readCounters().sub(before).allocObj) / calls
}

// kernelBench times the solver's operators and vector kernels one at a
// time, on the window the session last reconstructed, after every slot
// of a traced pass. Sampled between the decodes they are compared with,
// the kernel times see the same host load. Φ, Ψ and ΦΨ are built the
// way core.NewDecoder builds them. The vector kernels are the scalar
// linalg calls FISTA makes in the benchmark's VFP mode. That mode runs
// the momentum update as a loop inside the solver, which no linalg call
// times; momentum is timed on linalg.Combine4, the program's momentum
// kernel, and is left out of the vector share.
type kernelBench struct {
	phi linalg.Op[float32]
	tr  *wavelet.Transform[float32]
	a   linalg.Op[float32]

	y, r, xs, coeffs, prev, dst []float32
	// us holds one µs-per-call sample per slot for every kernel.
	us map[string][]float64
}

func newKernelBench(p core.Params) (*kernelBench, error) {
	phiM, err := sensing.NewSparseBinaryLCG(p.M, p.N, p.D, p.Seed)
	if err != nil {
		return nil, err
	}
	tr, err := wavelet.New[float32](p.WaveletOrder, p.N, p.WaveletLevels)
	if err != nil {
		return nil, err
	}
	k := &kernelBench{
		phi: sensing.Op[float32](phiM), tr: tr,
		y: make([]float32, p.M), r: make([]float32, p.M),
		xs: make([]float32, p.N), coeffs: make([]float32, p.N),
		prev: make([]float32, p.N), dst: make([]float32, p.N),
		us: map[string][]float64{},
	}
	k.a = linalg.Compose(k.phi, tr.SynthesisOp())
	return k, nil
}

// sample times every kernel on the window x: operators in batches of 8
// calls, vector kernels in batches of 64, about 0.7 ms in all.
func (k *kernelBench) sample(x []float32) {
	const ops, vecs = 8, 64
	const thresh, beta = 0.5, 0.9
	k.tr.Forward(k.coeffs, x)
	k.phi.Apply(k.y, x)
	for i, c := range k.coeffs {
		k.prev[i] = 0.99 * c
	}
	add := func(name string, calls int, f func()) { k.us[name] = append(k.us[name], perCallUs(calls, f)) }
	add("phi", ops, func() { k.phi.Apply(k.y, x) })
	add("phiT", ops, func() { k.phi.ApplyT(k.xs, k.y) })
	add("synth", ops, func() { k.tr.Inverse(k.xs, k.coeffs) })
	add("analysis", ops, func() { k.tr.Forward(k.xs, x) })
	add("norm2", vecs, func() { _ = linalg.Norm2(k.coeffs) })
	add("shrink", vecs, func() { linalg.SoftThreshold(k.dst, k.coeffs, thresh) })
	add("momentum", vecs, func() { linalg.Combine4(k.dst, k.coeffs, k.prev, beta) })
	add("sub", vecs, func() { linalg.Sub(k.dst, k.coeffs, k.prev) })
	add("subM", vecs, func() { linalg.Sub(k.r, k.y, k.y) })
	add("double", vecs, func() { linalg.Scale(2, k.dst) })
	add("axpy", vecs, func() { linalg.Axpy(-1e-3, k.coeffs, k.dst) })
}

// medianUs is a kernel's median µs per call over the sampled slots.
func (k *kernelBench) medianUs(name string) float64 { return median(k.us[name]) }

// vectorPerIterUs is the linalg vector-kernel time of one FISTA
// iteration: the gradient's residual Sub (length M) and doubling, the
// step Axpy, shrink, and the convergence test's Sub and two Norm2. The
// solver's inline momentum loop is not among them.
func (k *kernelBench) vectorPerIterUs() float64 {
	sum := 2 * k.medianUs("norm2")
	for _, n := range []string{"subM", "double", "axpy", "shrink", "sub"} {
		sum += k.medianUs(n)
	}
	return sum
}

// allocs counts heap objects per call of the wavelet transforms and of
// the composed operator ΦΨ.
func (k *kernelBench) allocs() (wavelet, compose float64) {
	wavelet = allocsPerCall(func() { k.tr.Inverse(k.xs, k.coeffs); k.tr.Forward(k.xs, k.xs) }) / 2
	compose = allocsPerCall(func() { k.a.Apply(k.y, k.coeffs); k.a.ApplyT(k.xs, k.y) }) / 2
	return wavelet, compose
}

// probeHuffman decodes the captured delta payloads symbol by symbol, as
// the coordinator's entropy stage does, and returns µs per packet.
func probeHuffman(p core.Params, pkts []*core.Packet) (float64, error) {
	if len(pkts) == 0 {
		return 0, fmt.Errorf("no delta packets captured")
	}
	cb := p.Codebook
	decodeOne := func(pkt *core.Packet) error {
		r := huffman.NewBitReader(pkt.Payload)
		for i := 0; i < int(pkt.NumSymbols); i++ {
			s, err := cb.Decode(r)
			if err != nil {
				return err
			}
			if s == core.EscapeSymbol {
				if _, err := r.ReadBits(24); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, pkt := range pkts {
		if err := decodeOne(pkt); err != nil {
			return 0, fmt.Errorf("huffman probe: %w", err)
		}
	}
	reps := make([]float64, 15)
	for i := range reps {
		reps[i] = perCallUs(1, func() {
			for _, pkt := range pkts {
				_ = decodeOne(pkt)
			}
		}) / float64(len(pkts))
	}
	return median(reps), nil
}

// probeMonitor serves a workload that has no monitor plane of its own:
// a monitor.Session on the last traced session's registry replays that
// pass's window and slot updates, and the scraper reads it 40 times,
// each scrape due when the last one ended.
func probeMonitor(reg *telemetry.Registry, wins []monitor.WindowStatus, slots []monitor.SlotStatus) *scraper {
	srv := monitor.NewServer(nil)
	ses := monitor.NewSession(monitor.SessionConfig{Name: "probe", Registry: reg}, nil)
	srv.Attach(ses)
	for _, w := range wins {
		ses.OnWindow(w)
	}
	for _, s := range slots {
		ses.OnSlot(s)
	}
	ses.Finish()
	const scrapes = 40
	s := &scraper{h: srv.Handler(), serviceMs: map[string][]float64{}}
	for k := 0; k < scrapes; k++ {
		s.scrape(scrapePaths[k%len(scrapePaths)], time.Now())
	}
	return s
}

// probeTelemetry runs the workload's first session, cut to 24 windows,
// with and without the csecg-monitor sinks (registry, span tracer,
// flight recorder, monitor.Session), alternating twice. Over the
// streamed slots it returns the extra heap objects per window and the
// extra wall time in percent. A forced GC on both sides of each
// measurement flushes the per-P allocation caches, so object counts
// are exact.
func probeTelemetry(w workload, seed uint64) (allocsPerWindow, overheadPct float64, err error) {
	const windows = 24
	var wall [2]time.Duration
	var objs [2]float64
	for rep := 0; rep < 2; rep++ {
		for with := 0; with < 2; with++ {
			cfg := w.config(seed, 0)
			cfg.Seconds = windows * csecg.WindowSize / csecg.FsMote
			obs := &slotObserver{flushFirst: true}
			if with == 1 {
				obs.next = attachSinks(&cfg, "telemetry probe")
			}
			cfg.Observer = obs
			if _, err := csecg.RunStream(cfg); err != nil {
				return 0, 0, fmt.Errorf("telemetry probe: %w", err)
			}
			runtime.GC()
			end := readCounters()
			wall[with] += obs.slots[len(obs.slots)-1].Sub(obs.slots[0])
			objs[with] += float64(end.sub(obs.first).allocObj)
		}
	}
	allocsPerWindow = (objs[1] - objs[0]) / (2 * windows)
	overheadPct = 100 * (wall[1].Seconds()/wall[0].Seconds() - 1)
	return allocsPerWindow, overheadPct, nil
}
