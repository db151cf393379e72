package server

import (
	"context"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// exempt reports whether a path bypasses admission control: probes and
// metrics must answer even when the API is saturated — that is the whole
// point of having them. Subscription event streams are exempt too: they
// are long-lived idle waits, so counting each against the in-flight cap
// would let a handful of subscribers starve the working endpoints, and a
// per-request deadline would cut every stream mid-delivery.
func exempt(path string) bool {
	switch path {
	case "/healthz", "/readyz", "/metrics":
		return true
	}
	if strings.HasPrefix(path, "/v1/subscriptions/") && strings.HasSuffix(path, "/events") {
		return true
	}
	return strings.HasPrefix(path, "/debug/pprof")
}

// admission wraps the mux with load shedding and per-request deadlines.
// It sits under the observability middleware, so shed requests still get
// a request ID, a metric sample and a log line.
//
// The model is a counting semaphore of MaxInFlight slots with a bounded
// queue in time rather than space: a request that cannot get a slot
// within QueueTimeout is shed with 429 and a Retry-After hint, which
// keeps worst-case latency bounded and tells well-behaved clients to
// back off instead of piling on.
func (s *Server) admission(next http.Handler) http.Handler {
	if s.opts.MaxInFlight <= 0 && s.opts.RequestTimeout <= 0 {
		return next
	}
	shed := s.reg.Counter("strg_http_shed_total",
		"requests rejected by admission control with 429", nil)
	var slots chan struct{}
	if s.opts.MaxInFlight > 0 {
		slots = make(chan struct{}, s.opts.MaxInFlight)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		if slots != nil {
			select {
			case slots <- struct{}{}:
			default:
				// Saturated: wait for a slot, but not forever.
				queue := time.NewTimer(s.opts.QueueTimeout)
				select {
				case slots <- struct{}{}:
					queue.Stop()
				case <-queue.C:
					shed.Inc()
					retryAfter := shedRetryAfter(s.opts.QueueTimeout)
					w.Header().Set("Retry-After", retryAfter)
					writeError(w, r, http.StatusTooManyRequests, CodeOverloaded,
						"server at capacity (%d in flight); retry after %ss",
						s.opts.MaxInFlight, retryAfter)
					return
				case <-r.Context().Done():
					queue.Stop()
					return // client gave up while queued; 499 via middleware
				}
			}
			defer func() { <-slots }()
		}
		if s.opts.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// shedRetryAfter computes one shed response's Retry-After hint: the
// queue timeout rounded up to whole seconds, plus uniform jitter of up
// to the same span again. A fixed hint would have every shed client —
// reconnecting replicas included — retry in lockstep and re-saturate the
// queue at the same instant; the jitter spreads the herd.
func shedRetryAfter(queueTimeout time.Duration) string {
	base := int((queueTimeout + time.Second - 1) / time.Second)
	if base < 1 {
		base = 1
	}
	return strconv.Itoa(base + rand.IntN(base+1))
}

// handleReadyz is the readiness probe: 200 only when the server should
// receive traffic. It is false while recovery replays the write-ahead
// log and during shutdown drain, so orchestrators route around the
// process without killing it (that is /healthz's call); on a replica the
// ReadyCheck hook additionally fails it while replication lag exceeds
// the configured bound or the state awaits a re-bootstrap.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeError(w, r, http.StatusServiceUnavailable, CodeUnavailable, "not ready")
		return
	}
	if s.opts.ReadyCheck != nil {
		if err := s.opts.ReadyCheck(); err != nil {
			writeError(w, r, http.StatusServiceUnavailable, CodeUnavailable, "not ready: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// SetReady flips the readiness probe: true once recovery completes,
// false when shutdown starts draining.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }
