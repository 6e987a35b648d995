package monitor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"

	"csecg/internal/blackbox"
	"csecg/internal/coordinator"
	"csecg/internal/telemetry"
)

// Server is the observability HTTP plane. Sessions are attached as the
// fleet spins up streams; the handler serves Prometheus text on
// /metrics, liveness on /healthz, readiness on /readyz, and per-stream
// JSON on /sessions.
type Server struct {
	clock   telemetry.Clock
	startNs int64

	// buildInfo is the rendered csecg_build_info family; the build
	// metadata cannot change while the process runs.
	buildInfo []byte

	// Sessions live in an append-only slice so every export walks them
	// in attach order — no map iteration anywhere near the wire format.
	// sources holds, per session, what /metrics renders; an element is
	// never rewritten once appended, so a scrape reads the slice it
	// loaded under mu without holding the lock.
	mu       sync.Mutex
	sessions []*Session
	sources  []telemetry.Source
	draining bool

	// inflight tracks requests currently being served, so shutdown can
	// wait for scrapes that were on the wire when the drain began.
	inflight sync.WaitGroup

	// testHookRequest, when set, runs at the start of every request —
	// the test seam that holds a scrape in flight across BeginDrain.
	testHookRequest func(path string)
}

// NewServer builds a server. clock (nil → telemetry.WallClock) stamps
// uptime; inject a ManualClock in tests.
func NewServer(clock telemetry.Clock) *Server {
	if clock == nil {
		clock = telemetry.WallClock{}
	}
	return &Server{clock: clock, startNs: clock.Now(), buildInfo: buildInfoFamily()}
}

// Attach registers a session with the plane.
func (s *Server) Attach(ses *Session) {
	src := telemetry.Source{
		Registry: ses.Registry(),
		Spans:    ses.Spans(),
		Labels:   []telemetry.Label{{Key: "session", Value: ses.Name()}},
	}
	s.mu.Lock()
	s.sessions = append(s.sessions, ses)
	s.sources = append(s.sources, src)
	s.mu.Unlock()
}

// snapshot returns the current session list.
func (s *Server) snapshot() []*Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Session(nil), s.sessions...)
}

// BeginDrain starts a graceful shutdown: /readyz flips to 503 so the
// load balancer stops routing new scrapes, while /metrics and
// /sessions keep answering — requests already on the wire (and any
// stragglers the balancer still sends) drain cleanly instead of being
// cut off mid-body.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// WaitIdle blocks until every in-flight request has finished AND every
// attached session's flight recorder has flushed its in-flight bundle
// seals — shutting down mid-incident must not truncate the one artifact
// that explains the incident. Call after BeginDrain and before closing
// the listener.
func (s *Server) WaitIdle() {
	s.inflight.Wait()
	for _, ses := range s.snapshot() {
		if rec := ses.Recorder(); rec != nil {
			rec.Drain()
		}
	}
}

// track wraps a handler with the in-flight accounting behind WaitIdle.
func (s *Server) track(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Done()
		if s.testHookRequest != nil {
			s.testHookRequest(path)
		}
		h(w, r)
	}
}

// Handler returns the plane's mux: /metrics, /healthz, /readyz,
// /sessions, plus POST /debug/bundle to seal diagnostics bundles on
// demand.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.track("/metrics", s.handleMetrics))
	mux.HandleFunc("/healthz", s.track("/healthz", s.handleHealthz))
	mux.HandleFunc("/readyz", s.track("/readyz", s.handleReadyz))
	mux.HandleFunc("/sessions", s.track("/sessions", s.handleSessions))
	mux.HandleFunc("/debug/bundle", s.track("/debug/bundle", s.handleBundle))
	return mux
}

// send writes a fully-buffered response; a broken scrape connection is
// the client's problem, not ours.
func send(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		return // client went away mid-response; nothing to clean up
	}
}

// metricsBufs recycles /metrics bodies: a scrape renders into a buffer
// that has already grown to the document's size, so it allocates
// nothing however many sessions are attached.
var metricsBufs = sync.Pool{New: func() any { return new([]byte) }}

// handleMetrics serves the exposition document rendered by
// appendMetrics from a pooled buffer.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	buf := metricsBufs.Get().(*[]byte)
	*buf = s.appendMetrics((*buf)[:0])
	send(w, http.StatusOK, "text/plain; version=0.0.4; charset=utf-8", *buf)
	metricsBufs.Put(buf)
}

// uptimeHeader opens the process_uptime_seconds_total family.
const uptimeHeader = "# HELP process_uptime_seconds_total seconds since the observability plane started\n" +
	"# TYPE process_uptime_seconds_total counter\nprocess_uptime_seconds_total "

// appendMetrics appends the /metrics document to dst: the process-level
// series that belong to the plane rather than any one session (build
// metadata, uptime), then every session's families rendered
// family-major by telemetry.AppendPrometheus — one # HELP/# TYPE per
// family, then each session's samples with its session label, in attach
// order.
//
//csecg:host export-time formatting
func (s *Server) appendMetrics(dst []byte) []byte {
	dst = append(dst, s.buildInfo...)
	dst = append(dst, uptimeHeader...)
	dst = strconv.AppendFloat(dst, float64(s.clock.Now()-s.startNs)/1e9, 'f', 3, 64)
	dst = append(dst, '\n')
	s.mu.Lock()
	srcs := s.sources
	s.mu.Unlock()
	return telemetry.AppendPrometheus(dst, srcs)
}

// handleHealthz is pure liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	uptime := s.clock.Now() - s.startNs
	send(w, http.StatusOK, "application/json",
		[]byte(fmt.Sprintf("{\"status\":\"ok\",\"uptime_ns\":%d,\"sessions\":%d}\n",
			uptime, len(s.snapshot()))))
}

// Ready reports readiness: the plane is not draining, at least one
// session is attached, and every unfinished session's coordinator is
// keyed and decoding. A degraded or still-starting stream makes the
// plane not ready; finished sessions stop gating.
func (s *Server) Ready() (bool, string) {
	if s.Draining() {
		return false, "draining"
	}
	sessions := s.snapshot()
	if len(sessions) == 0 {
		return false, "no sessions attached"
	}
	live := 0
	for _, ses := range sessions {
		if ses.Finished() {
			continue
		}
		live++
		if h := ses.Health(); h != coordinator.HealthDecoding {
			return false, fmt.Sprintf("session %q %s", ses.Name(), h)
		}
	}
	if live == 0 {
		return true, "all sessions finished"
	}
	return true, "decoding"
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready, reason := s.Ready()
	status := http.StatusOK
	state := "ready"
	if !ready {
		status = http.StatusServiceUnavailable
		state = "not ready"
	}
	body, err := json.Marshal(map[string]string{"status": state, "reason": reason})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	send(w, status, "application/json", append(body, '\n'))
}

// buildInfoFamily renders the csecg_build_info family from the
// binary's embedded build metadata: module version, VCS revision and
// dirty flag, and the Go toolchain. Absent fields (tests, go run) read
// "unknown" so the series shape is stable.
func buildInfoFamily() []byte {
	version, commit, modified, goVersion := "unknown", "unknown", "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		for _, st := range bi.Settings {
			switch st.Key {
			case "vcs.revision":
				commit = st.Value
			case "vcs.modified":
				modified = st.Value
			}
		}
	}
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return fmt.Appendf(nil, "# HELP csecg_build_info build metadata as labels; the value is constant 1\n"+
		"# TYPE csecg_build_info gauge\n"+
		"csecg_build_info{version=\"%s\",commit=\"%s\",modified=\"%s\",go=\"%s\"} 1\n",
		esc.Replace(version), esc.Replace(commit), esc.Replace(modified), esc.Replace(goVersion))
}

// BundleResult is one session's outcome for POST /debug/bundle.
type BundleResult struct {
	Session string `json:"session"`
	Path    string `json:"path,omitempty"`
	Error   string `json:"error,omitempty"`
}

// handleBundle seals a diagnostics bundle on demand for every attached
// session with a flight recorder (or just ?session=<name>). Manual
// seals bypass the trigger rate limit but still honor the per-session
// bundle cap.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	want := r.URL.Query().Get("session")
	matched := false
	results := []BundleResult{}
	for _, ses := range s.snapshot() {
		if want != "" && ses.Name() != want {
			continue
		}
		matched = true
		rec := ses.Recorder()
		if rec == nil {
			continue
		}
		path, err := rec.SealNow(blackbox.TriggerManual, "POST /debug/bundle")
		res := BundleResult{Session: ses.Name(), Path: path}
		if err != nil {
			res.Error = err.Error()
		}
		results = append(results, res)
	}
	switch {
	case want != "" && !matched:
		http.Error(w, fmt.Sprintf("no session named %q", want), http.StatusNotFound)
		return
	case len(results) == 0:
		http.Error(w, "no attached session has a flight recorder", http.StatusNotFound)
		return
	}
	body, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	send(w, http.StatusOK, "application/json", append(body, '\n'))
}

func (s *Server) handleSessions(w http.ResponseWriter, _ *http.Request) {
	sessions := s.snapshot()
	statuses := make([]SessionStatus, 0, len(sessions))
	for _, ses := range sessions {
		statuses = append(statuses, ses.Snapshot())
	}
	body, err := json.MarshalIndent(statuses, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	send(w, http.StatusOK, "application/json", append(body, '\n'))
}
