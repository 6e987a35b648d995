package monitor

// SetRequestHook installs the test seam that runs at the start of
// every tracked request — used to hold a scrape in flight across
// BeginDrain.
func (s *Server) SetRequestHook(h func(path string)) { s.testHookRequest = h }

// AppendMetrics exposes the /metrics renderer, so a test can render
// into a buffer it reuses.
func (s *Server) AppendMetrics(dst []byte) []byte { return s.appendMetrics(dst) }
