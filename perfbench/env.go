package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// environment is recorded with every result: the figures depend on the
// toolchain, the process settings and how much of the host the
// hypervisor gave to other guests during the run.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       int     `json:"gogc"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	StealPct   float64 `json:"steal_pct"`
	start      []uint64
}

func captureEnv() *environment {
	gogc := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(gogc)
	return &environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       int(gogc[0].Value.Uint64()),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		start:      cpuTicks(),
	}
}

// finish sets StealPct to the hypervisor's steal share of all CPU ticks
// since captureEnv, or -1 where /proc/stat is unavailable.
func (e *environment) finish() {
	end := cpuTicks()
	e.StealPct = -1
	if len(e.start) < 8 || len(end) < 8 {
		return
	}
	var total uint64
	for i := range end {
		if i < len(e.start) {
			total += end[i] - e.start[i]
		}
	}
	if total > 0 {
		e.StealPct = 100 * float64(end[7]-e.start[7]) / float64(total)
	}
}

// cpuTicks returns the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal, ...
func cpuTicks() []uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close() //csecg:errok read only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "cpu" {
			continue
		}
		out := make([]uint64, 0, len(fields)-1)
		for _, s := range fields[1:] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return nil
			}
			out = append(out, v)
		}
		return out
	}
	return nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
