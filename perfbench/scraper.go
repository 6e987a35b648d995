//csecg:nondet the benchmark times the program on the wall clock

package main

import (
	"net/http"
	"net/http/httptest"
	"time"
)

var scrapePaths = [2]string{"/metrics", "/sessions"}

// scraper is the second goroutine of the monitored workload. It calls
// monitor.Server.Handler() in process, once per streamed slot: the
// monitor's state changes once per 2-s slot, so a client polling at the
// slot period sees every update. The endpoints alternate, so each is
// read every second slot. The schedule is open loop in modelled time:
// a slot never waits for a scrape, and each scrape is timed from its
// slot, so a stall also charges the scrapes queued behind it. Because
// it follows the slots, every run of a workload scrapes the same number
// of times however fast the decoder is.
type scraper struct {
	h    http.Handler
	due  chan time.Time
	done chan struct{}

	// Written by the scraping goroutine, read after stop returns.
	latencyMs  []float64            // due → response, both endpoints
	lagMs      []float64            // due → scrape began
	serviceMs  map[string][]float64 // per endpoint, began → response
	metricsLen []float64            // /metrics body bytes
	attempted  int
	failed     int
}

// startScraper starts the scraping goroutine. slots is the number of
// slots the run streams: the queue holds them all, so tick never makes
// a slot wait.
func startScraper(h http.Handler, slots int) *scraper {
	s := &scraper{h: h, due: make(chan time.Time, slots), done: make(chan struct{}), serviceMs: map[string][]float64{}}
	go s.loop()
	return s
}

// tick schedules one scrape, due now.
func (s *scraper) tick(now time.Time) { s.due <- now }

// stop waits until every scheduled scrape has run and the goroutine
// has exited.
func (s *scraper) stop() {
	close(s.due)
	<-s.done
}

func (s *scraper) loop() {
	defer close(s.done)
	k := 0
	for due := range s.due {
		s.scrape(scrapePaths[k%len(scrapePaths)], due)
		k++
	}
}

func (s *scraper) scrape(path string, due time.Time) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	began := time.Now()
	s.h.ServeHTTP(rec, req)
	end := time.Now()
	s.attempted++
	if rec.Code != http.StatusOK {
		s.failed++
	}
	s.latencyMs = append(s.latencyMs, float64(end.Sub(due))/1e6)
	s.lagMs = append(s.lagMs, float64(began.Sub(due))/1e6)
	s.serviceMs[path] = append(s.serviceMs[path], float64(end.Sub(began))/1e6)
	if path == "/metrics" {
		s.metricsLen = append(s.metricsLen, float64(rec.Body.Len()))
	}
}
