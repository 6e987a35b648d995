package main

import (
	"fmt"
	"math"

	"csecg"
)

// workload is one fixed recipe of monitoring sessions. The amount of
// work follows from --seconds alone, so the parent and the child of a
// change run identical inputs however fast either is.
type workload struct {
	name string
	// windows is the session length in 2-s windows.
	windows int
	// sessionsPerSecond converts --seconds into a session count; it was
	// sized so one nominal second holds about one second of streaming.
	sessionsPerSecond float64
	// rotation, when set, rounds the session count to whole rotations
	// through the record database, so every record weighs the same.
	rotation int
	// monitored selects the csecg-monitor setup: a lossy link (link
	// below) with NACK over a fault-free uplink, and registry, span
	// tracer, flight recorder and a monitor.Session per session, served
	// by one monitor.Server that a second goroutine scrapes on a fixed
	// schedule. The other workloads stream over a fault-free link, so
	// every encoded window must decode. NACKs cross a fault-free uplink
	// because, with NACKs crossing the lossy channel too, about one
	// session in thirty abandons windows, and the workload must not
	// fail any.
	monitored bool
	// prdCeiling is the highest session mean PRDN (%) the output check
	// accepts: about 1.5 times the worst session seen over 20 seeds.
	prdCeiling float64
	// record picks the substitute-database record of session i.
	record func(seed uint64, i int) string
	// link configures the data downlink of session i.
	link func(seed uint64, i int) csecg.LinkConfig
}

// cr50 is M for the paper's headline compression ratio.
var cr50 = csecg.MForCR(50, csecg.WindowSize)

var workloads = []workload{
	{
		name:              "stream_cr50",
		windows:           160,
		sessionsPerSecond: 0.15,
		prdCeiling:        12,
		record:            func(uint64, int) string { return "100" },
		link:              cleanLink,
	},
	{
		name:              "sweep48_cr50",
		windows:           8,
		sessionsPerSecond: 2.4,
		rotation:          len(csecg.Database()),
		prdCeiling:        40,
		record: func(seed uint64, i int) string {
			db := csecg.Database()
			return db[(int(seed%uint64(len(db)))+i)%len(db)].ID
		},
		link: cleanLink,
	},
	{
		name:              "monitored_lossy",
		windows:           120,
		sessionsPerSecond: 0.2,
		monitored:         true,
		prdCeiling:        20,
		record:            func(uint64, int) string { return "106" },
		link: func(seed uint64, i int) csecg.LinkConfig {
			// Bursts average 1.25 frames: the mote's 4-slot retransmit
			// ring cannot recover a burst of five or more, and with a
			// mean of 1.67 frames one run in ten lost windows.
			l := csecg.DefaultLinkConfig()
			l.Burst = &csecg.BurstConfig{PGoodBad: 0.005, PBadGood: 0.8}
			l.ReorderProb = 0.05
			l.DupProb = 0.02
			l.Seed = splitmix(seed^0x11, uint64(i))
			return l
		},
	},
}

func cleanLink(uint64, int) csecg.LinkConfig { return csecg.DefaultLinkConfig() }

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sessions is the number of sessions a run of the given length drives.
func (w workload) sessions(seconds float64) int {
	n := int(math.Round(seconds * w.sessionsPerSecond))
	if w.rotation > 0 {
		n = w.rotation * int(math.Round(float64(n)/float64(w.rotation)))
	}
	return max(n, 1)
}

// config is session i's stream configuration without telemetry sinks.
// Every session draws its own sensing matrix from the seed.
func (w workload) config(seed uint64, i int) csecg.StreamConfig {
	cfg := csecg.StreamConfig{
		RecordID:  w.record(seed, i),
		Seconds:   float64(w.windows * csecg.WindowSize / csecg.FsMote),
		Params:    csecg.Params{M: cr50, Seed: uint16(splitmix(seed, uint64(i))) | 1},
		Link:      w.link(seed, i),
		Transport: csecg.TransportConfig{NACK: w.monitored},
	}
	if w.monitored {
		up := csecg.DefaultLinkConfig()
		cfg.ControlLink = &up
	}
	return cfg
}

// splitmix derives independent per-session values from the workload
// seed, so one --seed fixes every input of the run.
func splitmix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
