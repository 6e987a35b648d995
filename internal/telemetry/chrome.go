package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteChromeTrace renders causal span trees as Chrome trace_event
// JSON, loadable in chrome://tracing or Perfetto: one process per
// session and one thread track per window. A window's root, its tiling
// leaves and the solver's continuation sub-stages nest as B/E slice
// pairs on the window's track; rung changes render as instants. Every
// event carries the window's trace ID. Nanosecond timestamps convert to
// the format's microseconds with the sub-microsecond remainder kept as
// three decimals, so modeled cycle-level durations survive; the output
// is byte-stable for a given record list (golden-tested).
//
//csecg:host export-time formatting
func WriteChromeTrace(w io.Writer, recs []TraceRecord) error {
	var b strings.Builder
	b.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	event := func(name, ph string, ts, pid, tid int64, args string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(`{"name":`)
		writeJSONString(&b, name)
		fmt.Fprintf(&b, `,"ph":%q,"ts":`, ph)
		writeMicros(&b, ts)
		if ph == "i" {
			b.WriteString(`,"s":"t"`)
		}
		fmt.Fprintf(&b, `,"pid":%d,"tid":%d`, pid, tid)
		if args != "" {
			b.WriteString(`,"args":{` + args + `}`)
		}
		b.WriteByte('}')
	}
	nameArg := func(name string) string {
		var a strings.Builder
		a.WriteString(`"name":`)
		writeJSONString(&a, name)
		return a.String()
	}

	pids := map[string]int64{}
	tracks := map[int64]int64{} // pid → windows rendered so far
	for i := range recs {
		r := &recs[i]
		pid, ok := pids[r.Session]
		if !ok {
			pid = int64(len(pids) + 1)
			pids[r.Session] = pid
			label := r.Session
			if label == "" {
				label = "session"
			}
			event("process_name", "M", 0, pid, 0, nameArg(label))
		}
		tracks[pid]++
		tid := tracks[pid]
		event("thread_name", "M", 0, pid, tid, nameArg(fmt.Sprintf("window %d", r.Seq)))

		idArg := fmt.Sprintf(`"trace_id":%q`, r.TraceID)
		children := make([][]int, len(r.Spans))
		var roots []int
		for j, s := range r.Spans {
			if s.Parent < 0 || s.Parent >= len(r.Spans) || s.Parent == j {
				roots = append(roots, j)
				continue
			}
			children[s.Parent] = append(children[s.Parent], j)
		}
		for _, c := range children {
			sort.SliceStable(c, func(a, b int) bool { return r.Spans[c[a]].StartNs < r.Spans[c[b]].StartNs })
		}
		// emit writes span j and its subtree and returns the subtree's
		// end: a parent closes no earlier than its last child, so the
		// B/E pairs nest even for a shed window, whose root carries no
		// latency.
		var emit func(j int) int64
		emit = func(j int) int64 {
			s := &r.Spans[j]
			args := idArg
			switch {
			case s.Parent < 0:
				args += fmt.Sprintf(`,"seq":%d,"rung":%d`, r.Seq, r.Rung)
				if len(r.Flags) > 0 {
					args += fmt.Sprintf(`,"flags":%q`, strings.Join(r.Flags, ","))
				}
				if r.DroppedSpans > 0 {
					args += fmt.Sprintf(`,"dropped_spans":%d`, r.DroppedSpans)
				}
			case s.Rung >= 0:
				args += fmt.Sprintf(`,"rung":%d`, s.Rung)
			}
			if s.Attempt > 0 {
				args += fmt.Sprintf(`,"attempt":%d`, s.Attempt)
			}
			if s.Stage == StageRungChange {
				event(s.Stage, "i", s.StartNs, pid, tid, args)
				return s.StartNs
			}
			event(s.Stage, "B", s.StartNs, pid, tid, args)
			end := s.StartNs + s.DurNs
			for _, c := range children[j] {
				end = max(end, emit(c))
			}
			event(s.Stage, "E", end, pid, tid, "")
			return end
		}
		for _, j := range roots {
			emit(j)
		}
	}
	b.WriteString("]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeMicros renders nanosecond ticks as microseconds with three
// decimals (the trace_event unit is µs).
func writeMicros(b *strings.Builder, ns int64) {
	neg := ns < 0
	if neg {
		ns = -ns
		b.WriteByte('-')
	}
	fmt.Fprintf(b, "%d.%03d", ns/1000, ns%1000)
}

// writeJSONString appends a JSON-escaped string.
func writeJSONString(b *strings.Builder, s string) {
	enc, err := json.Marshal(s)
	if err != nil {
		// Marshaling a string cannot fail; keep the output well-formed
		// regardless.
		b.WriteString(`""`)
		return
	}
	b.Write(enc)
}
