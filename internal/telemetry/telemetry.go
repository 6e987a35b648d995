// Package telemetry is the instrumentation substrate of the pipeline:
// integer-only, zero-alloc counters, gauges and log-bucketed latency
// histograms that hotpath code records into, plus the causal span
// tracer (CausalTracer) that follows each 2-second window through every
// pipeline stage as one tree of spans whose depth-1 leaves tile the
// window's end-to-end decode latency (DESIGN.md §14).
//
// The recording side obeys the same embedded constraints csecg-vet
// enforces on the encoder: Counter.Add, Gauge.Set and
// Histogram.Observe are //csecg:hotpath (allocation-free, verified by
// AllocsPerRun tests) and take only int64 ticks, so device-side
// packages can call them without tripping the nofpu analyzer. Float
// conversion — percentiles, means, rate math — happens exclusively on
// the host side at export time and is marked //csecg:host.
//
// Every exporter reads one of two structures, the registry or the span
// trees:
//
//   - WritePrometheus: a Prometheus text-format metrics dump, with
//     WriteStageSeconds adding the per-stage exemplar histograms;
//   - WriteTraceRecords / ReadTraceRecords: round-trippable span-tree
//     JSONL, the csecg-triage input;
//   - WriteChromeTrace: the same span trees as Chrome trace_event JSON,
//     loadable in chrome://tracing or Perfetto.
//
// All timing is injectable through the Clock interface so traces are
// reproducible in tests (the determinism analyzer bans bare time.Now
// in library packages); WallClock is the production implementation.
package telemetry
