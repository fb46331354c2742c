package serve

import (
	"net/http"
	"net/http/pprof"
	"time"

	"dfpr/internal/telemetry"
)

// This file is the serve layer's observability surface: per-endpoint RED
// metrics (request rate, errors by class, duration) recorded by a middleware
// around every /v1 handler, the GET /metrics exposition endpoint, and the
// opt-in net/http/pprof mount. Everything registers on the ENGINE's registry
// (Engine.Metrics()), so one scrape covers HTTP, ingest and durability
// together, and a second Server over the same engine shares the series
// instead of fighting over them.

// redSet is one endpoint's RED instruments, resolved once at route
// registration — the request path does no label work.
type redSet struct {
	reqs *telemetry.Counter
	err4 *telemetry.Counter
	err5 *telemetry.Counter
	dur  *telemetry.Histogram
}

// red registers (or finds) the RED instruments for one endpoint label.
func (s *Server) red(endpoint string) redSet {
	reg := s.eng.Metrics()
	ep := telemetry.L("endpoint", endpoint)
	return redSet{
		reqs: reg.Counter("dfpr_http_requests_total",
			"HTTP requests served, by endpoint.", ep),
		err4: reg.Counter("dfpr_http_errors_total",
			"HTTP error responses, by endpoint and status class.",
			ep, telemetry.L("class", "4xx")),
		err5: reg.Counter("dfpr_http_errors_total",
			"HTTP error responses, by endpoint and status class.",
			ep, telemetry.L("class", "5xx")),
		dur: reg.Histogram("dfpr_http_request_seconds",
			"HTTP request duration, by endpoint.", nil, ep),
	}
}

// instrument wraps a handler with its endpoint's RED recording. The status
// is captured through a wrapping ResponseWriter; a handler that never calls
// WriteHeader counts as 200, matching net/http's implicit behaviour.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	m := s.red(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		m.reqs.Inc()
		switch {
		case sw.code >= 500:
			m.err5.Inc()
			s.log.Warn("request failed", "endpoint", endpoint, "status", sw.code, "path", r.URL.Path)
		case sw.code >= 400:
			m.err4.Inc()
		}
		m.dur.ObserveSince(t0)
	}
}

// statusWriter records the response status for the RED middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// initTelemetry registers the server's own series and mounts the
// observability routes: GET /metrics always, /debug/pprof/ when opted in.
func (s *Server) initTelemetry() {
	reg := s.eng.Metrics()
	s.reads = reg.Counter("dfpr_serve_reads_total",
		"Read requests (rank, topk, delta) answered successfully.")
	s.writes = reg.Counter("dfpr_serve_writes_total",
		"Apply batches accepted (202/200).")
	reg.GaugeFunc("dfpr_serve_uptime_seconds",
		"Seconds since this server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })

	s.mux.Handle("GET /metrics", reg.Handler())
	if s.opts.pprof {
		// The index handler serves every registered profile (heap, goroutine,
		// mutex, ...); only the handlers with dedicated behaviour need their
		// own routes.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}
