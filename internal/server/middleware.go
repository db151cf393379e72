package server

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"strgindex/internal/obs"
)

// statusClientClosed is the nginx-convention status recorded for requests
// whose client disconnected before a response was written. It is never
// sent on the wire (there is no one left to read it); it exists so the
// request metric and log line distinguish abandonment from failure.
const statusClientClosed = 499

// statusWriter records the status code and byte count a handler produced.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// status returns the effective status: what the handler wrote, or 200 if
// it wrote a body without an explicit header, or 0 if nothing was written.
func (w *statusWriter) status() int { return w.code }

// Flush forwards to the underlying writer so streaming handlers (the SSE
// event stream) can push each event through the middleware wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// routeLabel buckets a request path into the finite endpoint set so the
// per-endpoint metrics keep bounded cardinality no matter what paths are
// probed.
func routeLabel(path string) string {
	switch path {
	case "/v1/segments", "/v1/query", "/v1/stats", "/metrics", "/healthz", "/readyz":
		return path
	}
	// Feed and subscription paths carry client-chosen IDs; bucket them by
	// shape. The frames bucket is its own label so the feed-ingest latency
	// histogram is directly assertable (a stalled event consumer must not
	// move it).
	switch {
	case strings.HasPrefix(path, "/v1/feeds"):
		if strings.HasSuffix(path, "/frames") {
			return "/v1/feeds/frames"
		}
		if strings.HasSuffix(path, "/flush") {
			return "/v1/feeds/flush"
		}
		return "/v1/feeds"
	case strings.HasPrefix(path, "/v1/subscriptions"):
		if strings.HasSuffix(path, "/events") {
			return "/v1/subscriptions/events"
		}
		return "/v1/subscriptions"
	case strings.HasPrefix(path, "/v1/replication/"):
		return "/v1/replication"
	}
	return "other"
}

// middleware wraps the mux with the observability layer: request-ID
// assignment (honoring an incoming X-Request-ID), in-flight gauge, panic
// recovery into the JSON error envelope, per-endpoint latency histograms
// and status-labeled request counters, and one structured log line per
// request carrying the request ID.
func (s *Server) middleware(next http.Handler) http.Handler {
	inflight := s.reg.Gauge("strg_http_inflight", "requests currently being served", nil)
	panics := s.reg.Counter("strg_http_panics_total", "handler panics recovered into 500 responses", nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		r = r.WithContext(obs.WithRequestID(r.Context(), id))
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		inflight.Inc()
		defer func() {
			if rec := recover(); rec != nil {
				panics.Inc()
				s.log.Error("handler panic",
					"request_id", id,
					"method", r.Method,
					"path", r.URL.Path,
					"panic", fmt.Sprint(rec),
					"stack", string(debug.Stack()),
				)
				if sw.status() == 0 {
					writeError(sw, r, http.StatusInternalServerError, CodeInternal, "internal server error")
				}
			}
			inflight.Dec()
			status := sw.status()
			if status == 0 {
				// Nothing written: the client went away mid-request.
				status = statusClientClosed
			}
			path := routeLabel(r.URL.Path)
			dur := time.Since(start)
			s.reg.Counter("strg_http_requests_total",
				"HTTP requests served, by endpoint and status",
				obs.Labels{"path": path, "status": strconv.Itoa(status)}).Inc()
			s.reg.Histogram("strg_http_request_seconds",
				"HTTP request latency in seconds, by endpoint",
				obs.Labels{"path": path}, nil).Observe(dur.Seconds())
			s.log.Info("request",
				"request_id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"status", status,
				"duration_ms", float64(dur.Nanoseconds())/1e6,
				"bytes", sw.bytes,
			)
		}()
		next.ServeHTTP(sw, r)
	})
}
