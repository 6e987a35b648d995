package telemetry

// Snapshot is a deterministic point-in-time copy of a registry — the
// flight recorder embeds one in every diagnostics bundle so an incident
// ships with the counters that led up to it. Series are sorted by name
// (the registry never exposes raw map order), making two snapshots of
// identical state byte-identical after JSON encoding.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// CounterSnapshot is one counter's value.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's last value and high-water mark.
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// HistogramSnapshot is one histogram's aggregate plus its non-empty
// log-2 buckets (sparse: empty buckets are omitted).
type HistogramSnapshot struct {
	Name    string           `json:"name"`
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Max     int64            `json:"max"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one non-empty log-2 bucket.
type BucketSnapshot struct {
	// Bucket is the log-2 bucket index (see BucketLow/BucketHigh).
	Bucket int   `json:"bucket"`
	Count  int64 `json:"count"`
}

// Snapshot copies the registry's current state. It allocates — a
// host-side export operation, never called from capture hotpaths.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	f := r.families()
	for _, c := range f[counterKind] {
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.name, Value: c.counter.Load()})
	}
	for _, g := range f[gaugeKind] {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: g.name, Value: g.gauge.Load(), Max: g.gauge.Max()})
	}
	for _, fh := range f[histogramKind] {
		h := fh.hist
		hs := HistogramSnapshot{Name: fh.name, Count: h.Count(), Sum: h.Sum(), Max: h.Max()}
		for b := 0; b < NumBuckets; b++ {
			if n := h.Bucket(b); n != 0 {
				hs.Buckets = append(hs.Buckets, BucketSnapshot{Bucket: b, Count: n})
			}
		}
		s.Histograms = append(s.Histograms, hs)
	}
	return s
}
