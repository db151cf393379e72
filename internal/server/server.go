// Package server exposes a VideoDB over HTTP with a versioned JSON API —
// the deployment surface of the system: one process ingests camera
// segments and serves motion-similarity and predicate queries.
//
//	POST /v1/query             declarative query DSL (see internal/query)
//	POST /v1/segments          {"stream": "...", "segment": {...}}  -> ingest stats
//	GET  /v1/stats
//	GET  /healthz              liveness probe
//	GET  /metrics              Prometheus text exposition
//
// POST /v1/query is the one query route: one JSON document composing a
// `where` predicate tree with an optional `similar` clause (k-NN or
// range), planned by the cost-based planner (trajectory R-tree probe vs
// scan vs index descent) and answered with the unified envelope
//
//	{"matches": [...], "total": n, "limit": n, "truncated": false,
//	 "stats": {... filter-and-refine accounting, "stages": [...]},
//	 "plan": {"strategy": "rtree", ...}}
//
// where stats carries the search's filter-and-refine accounting
// (candidates evaluated, records pruned by each lower-bound stage, DP
// kernels abandoned) plus per-stage candidate counts, and
// plan describes the chosen access path.
//
// Every error response is the JSON envelope
// {"error": {"code", "message", "request_id"}} with a stable
// machine-readable code (see errors.go); the request ID also appears in
// the X-Request-ID response header and the structured log line for the
// request. Request bodies are size-limited, and query handlers observe
// request-context cancellation: a disconnected client aborts its
// in-flight search instead of burning the worker pool.
//
// All handlers are safe for concurrent use (the server wraps a SharedDB).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"strgindex/internal/core"
	"strgindex/internal/feed"
	"strgindex/internal/index"
	"strgindex/internal/obs"
	"strgindex/internal/query"
	"strgindex/internal/replica"
	"strgindex/internal/video"
)

// Body-size and response-size defaults; see Options to override.
const (
	// defaultIngestBodyLimit bounds POST /v1/segments bodies (segments
	// carry per-frame region lists and can legitimately run to megabytes).
	defaultIngestBodyLimit = 32 << 20
	// queryBodyLimit bounds a /v1/query body; a trajectory or predicate
	// description has no business being this large.
	queryBodyLimit = 1 << 20
	// defaultSelectLimit caps predicate-only /v1/query responses unless
	// the request asks for a different (still bounded) limit.
	defaultSelectLimit = 1000
)

// Options configures the observability surface of a server. The zero
// value is production-ready.
type Options struct {
	// Logger receives one structured line per request plus error and
	// panic reports. Nil means a text handler on stderr.
	Logger *slog.Logger
	// Registry receives the HTTP-layer metrics. Nil means a fresh
	// registry private to this server; GET /metrics renders it followed
	// by the process-global obs.Default (pipeline metrics).
	Registry *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// MaxIngestBodyBytes overrides the POST /v1/segments body limit.
	// Zero means 32 MiB.
	MaxIngestBodyBytes int64
	// SelectLimit overrides the default response cap of predicate-only
	// queries. Zero means 1000.
	SelectLimit int
	// MaxInFlight caps concurrently served API requests (probe and
	// metrics endpoints are exempt). Excess requests queue up to
	// QueueTimeout and are then shed with 429 + Retry-After. Zero means
	// no cap.
	MaxInFlight int
	// QueueTimeout bounds how long a request may wait for an in-flight
	// slot. Zero means 1 second when MaxInFlight is set.
	QueueTimeout time.Duration
	// RequestTimeout is the server-side deadline on each API request's
	// context; an expired deadline answers 504. Zero means no deadline.
	RequestTimeout time.Duration
	// StartUnready makes /readyz answer 503 until SetReady(true) — for a
	// process that binds its listener before recovery has finished.
	StartUnready bool
	// ReadyCheck, when set, is consulted by /readyz after the ready flag:
	// a non-nil error answers 503 with the error text. Defaults to
	// Replica.Healthy when Replica is set, so a lagging or diverged
	// replica drops out of rotation automatically.
	ReadyCheck func() error
	// Replication mounts the primary-side replication endpoints
	// (/v1/replication/{register,ack,snapshot,wal,digest,status}) over the
	// given service.
	Replication *replica.Primary
	// Replica marks this server as a read replica: ingest answers 403
	// read_only_replica, /v1/replication/status reports the replica's
	// view, and /readyz fails while the replica lags past its bound.
	Replica *replica.Replica
	// Feeds mounts the live-feed and standing-query endpoints
	// (/v1/feeds/*, /v1/subscriptions/*) over the given service.
	Feeds *feed.Service
}

func (o Options) withDefaults() Options {
	if o.Logger == nil {
		o.Logger = obs.NewLogger()
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.MaxIngestBodyBytes <= 0 {
		o.MaxIngestBodyBytes = defaultIngestBodyLimit
	}
	if o.SelectLimit <= 0 {
		o.SelectLimit = defaultSelectLimit
	}
	if o.MaxInFlight > 0 && o.QueueTimeout <= 0 {
		o.QueueTimeout = time.Second
	}
	if o.ReadyCheck == nil && o.Replica != nil {
		o.ReadyCheck = o.Replica.Healthy
	}
	return o
}

// Server is the HTTP facade over a shared database.
type Server struct {
	db      *core.SharedDB
	mux     *http.ServeMux
	handler http.Handler
	log     *slog.Logger
	reg     *obs.Registry
	opts    Options
	// ready gates /readyz: false while recovery is replaying or shutdown
	// is draining. Liveness (/healthz) is independent of it.
	ready atomic.Bool
}

// NewWith creates a server over an empty database.
func NewWith(cfg core.Config, opts Options) *Server {
	return wrap(core.OpenShared(cfg), opts)
}

// NewFromReaderWith creates a server over a database persisted by
// core.VideoDB.Save.
func NewFromReaderWith(r io.Reader, cfg core.Config, opts Options) (*Server, error) {
	db, err := core.LoadShared(r, cfg)
	if err != nil {
		return nil, err
	}
	return wrap(db, opts), nil
}

// NewShared creates a server over an existing shared database — e.g. one
// recovered with core.OpenDurable.
func NewShared(db *core.SharedDB, opts Options) *Server {
	return wrap(db, opts)
}

func wrap(db *core.SharedDB, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{db: db, mux: http.NewServeMux(), log: opts.Logger, reg: opts.Registry, opts: opts}
	s.mux.HandleFunc("POST /v1/segments", s.handleIngest)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Method mismatches on known paths envelope as 405 with an Allow
	// header; everything else falls through to the catch-all 404. Both
	// stay JSON: a /v1 client should never see a text/plain error.
	allowed := map[string]string{
		"/v1/segments": http.MethodPost,
		"/v1/query":    http.MethodPost,
		"/v1/stats":    http.MethodGet,
	}
	if opts.Replication != nil {
		s.mux.HandleFunc("POST /v1/replication/register", s.handleReplRegister)
		s.mux.HandleFunc("POST /v1/replication/ack", s.handleReplAck)
		s.mux.HandleFunc("GET /v1/replication/snapshot", s.handleReplSnapshot)
		s.mux.HandleFunc("GET /v1/replication/wal", s.handleReplWAL)
		s.mux.HandleFunc("GET /v1/replication/digest", s.handleReplDigest)
		allowed["/v1/replication/register"] = http.MethodPost
		allowed["/v1/replication/ack"] = http.MethodPost
		allowed["/v1/replication/snapshot"] = http.MethodGet
		allowed["/v1/replication/wal"] = http.MethodGet
		allowed["/v1/replication/digest"] = http.MethodGet
	}
	if opts.Replication != nil || opts.Replica != nil {
		s.mux.HandleFunc("GET /v1/replication/status", s.handleReplStatus)
		allowed["/v1/replication/status"] = http.MethodGet
	}
	if opts.Feeds != nil {
		s.mux.HandleFunc("POST /v1/feeds/{id}/frames", s.handleFeedFrames)
		s.mux.HandleFunc("POST /v1/feeds/{id}/flush", s.handleFeedFlush)
		s.mux.HandleFunc("GET /v1/feeds/{id}", s.handleFeedState)
		s.mux.HandleFunc("GET /v1/feeds", s.handleFeedList)
		s.mux.HandleFunc("POST /v1/subscriptions", s.handleSubscribe)
		s.mux.HandleFunc("GET /v1/subscriptions", s.handleSubscriptionList)
		s.mux.HandleFunc("GET /v1/subscriptions/{id}", s.handleSubscriptionGet)
		s.mux.HandleFunc("DELETE /v1/subscriptions/{id}", s.handleUnsubscribe)
		s.mux.HandleFunc("GET /v1/subscriptions/{id}/events", s.handleSubscriptionEvents)
		allowed["/v1/feeds/{id}/frames"] = http.MethodPost
		allowed["/v1/feeds/{id}/flush"] = http.MethodPost
		allowed["/v1/feeds/{id}"] = http.MethodGet
		allowed["/v1/feeds"] = http.MethodGet
		allowed["/v1/subscriptions"] = "GET, POST"
		allowed["/v1/subscriptions/{id}"] = "DELETE, GET"
		allowed["/v1/subscriptions/{id}/events"] = http.MethodGet
	}
	for p, allow := range allowed {
		allow := allow
		s.mux.HandleFunc(p, func(w http.ResponseWriter, r *http.Request) {
			s.handleMethodNotAllowed(w, r, allow)
		})
	}
	s.mux.HandleFunc("/", s.handleNotFound)
	if opts.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.ready.Store(!opts.StartUnready)
	s.handler = s.middleware(s.admission(s.mux))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// DB exposes the underlying shared database (tests, embedding).
func (s *Server) DB() *core.SharedDB { return s.db }

// decode parses a size-limited JSON body, writing the error envelope
// (400 bad_request or 413 too_large) and returning false on failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, r, http.StatusRequestEntityTooLarge, CodeTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
		} else {
			writeError(w, r, http.StatusBadRequest, CodeBadRequest, "decoding body: %v", err)
		}
		return false
	}
	return true
}

// queryError reports a failed Ctx query: a server-imposed deadline
// answers 504; client cancellation means the client disconnected (the
// envelope goes nowhere, but the status makes the request metric and log
// line honest); anything else is a pool failure.
func (s *Server) queryError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, core.ErrApproxDisabled) {
		writeError(w, r, http.StatusBadRequest, CodeApproxDisabled,
			"approximate tier is disabled on this server (start it with -approx, or drop \"mode\": \"approx\")")
		return
	}
	if errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == context.DeadlineExceeded {
		s.log.Warn("query deadline exceeded",
			"request_id", obs.RequestIDFrom(r.Context()),
			"path", r.URL.Path, "timeout", s.opts.RequestTimeout)
		writeError(w, r, http.StatusGatewayTimeout, CodeTimeout,
			"query exceeded the %s request deadline", s.opts.RequestTimeout)
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.log.Warn("query canceled",
			"request_id", obs.RequestIDFrom(r.Context()),
			"path", r.URL.Path, "cause", err)
		writeError(w, r, statusClientClosed, CodeInternal, "query canceled: %v", err)
		return
	}
	s.log.Error("query failed",
		"request_id", obs.RequestIDFrom(r.Context()),
		"path", r.URL.Path, "err", err)
	writeError(w, r, http.StatusInternalServerError, CodeInternal, "query failed")
}

// ingestRequest is the POST /v1/segments body.
type ingestRequest struct {
	Stream  string         `json:"stream"`
	Segment *video.Segment `json:"segment"`
}

// matchJSON is one query hit on the wire.
type matchJSON struct {
	Stream   string  `json:"stream"`
	Clip     string  `json:"clip"`
	Label    string  `json:"label,omitempty"`
	OGID     int     `json:"og_id"`
	Distance float64 `json:"distance"`
}

func toMatchJSON(ms []core.Match) []matchJSON {
	out := make([]matchJSON, len(ms))
	for i, m := range ms {
		out[i] = matchJSON{
			Stream:   m.Record.Stream,
			Clip:     m.Record.Clip.String(),
			Label:    m.Record.Label,
			OGID:     m.Record.OGID,
			Distance: m.Distance,
		}
	}
	return out
}

// searchStatsJSON is one search's filter-and-refine accounting on the
// wire (see index.SearchStats for the taxonomy).
type searchStatsJSON struct {
	CandidateLeaves  int `json:"candidate_leaves"`
	ScannedLeaves    int `json:"scanned_leaves"`
	Records          int `json:"records"`
	LBQuickPruned    int `json:"lb_quick_pruned"`
	LBEnvelopePruned int `json:"lb_envelope_pruned"`
	DPEvaluated      int `json:"dp_evaluated"`
	DPAbandoned      int `json:"dp_abandoned"`
}

func toStatsJSON(st index.SearchStats) searchStatsJSON {
	return searchStatsJSON{
		CandidateLeaves:  st.CandidateLeaves,
		ScannedLeaves:    st.ScannedLeaves,
		Records:          st.Records,
		LBQuickPruned:    st.LBQuickPruned,
		LBEnvelopePruned: st.LBEnvelopePruned,
		DPEvaluated:      st.DPEvaluated,
		DPAbandoned:      st.DPAbandoned,
	}
}

// stageJSON is one executed plan stage on the wire.
type stageJSON struct {
	Name   string `json:"name"`
	In     int    `json:"in"`
	Out    int    `json:"out"`
	Micros int64  `json:"micros"`
}

// queryStatsJSON is the envelope's stats object: the index search's
// filter-and-refine accounting (flat, zero for plans that never touch
// the index) plus the planner's per-stage candidate counts.
type queryStatsJSON struct {
	searchStatsJSON
	Stages []stageJSON `json:"stages,omitempty"`
	Approx *approxJSON `json:"approx,omitempty"`
}

// planJSON describes the access path the cost-based planner chose.
type planJSON struct {
	Strategy       string   `json:"strategy"`
	ProbeSource    string   `json:"probe_source,omitempty"`
	EstSelectivity float64  `json:"est_selectivity,omitempty"`
	EstCandidates  int      `json:"est_candidates,omitempty"`
	CostScan       float64  `json:"cost_scan,omitempty"`
	CostRTree      float64  `json:"cost_rtree,omitempty"`
	NProbe         int      `json:"nprobe,omitempty"`
	CostApprox     float64  `json:"cost_approx,omitempty"`
	Order          []string `json:"order,omitempty"`
}

// approxJSON is the approximate tier's probe accounting (strategy
// "approx" only; the rerank itself reports through the regular search
// stats — its distances are exact).
type approxJSON struct {
	NProbe      int     `json:"nprobe"`
	Lists       int     `json:"lists"`
	Probed      int     `json:"probed"`
	Candidates  int     `json:"candidates"`
	RecallProxy float64 `json:"recall_proxy"`
}

// queryResponse is the reply envelope of /v1/query: matches capped at
// limit, the untruncated total, the search and per-stage accounting, and
// the plan that produced it.
type queryResponse struct {
	Matches   []matchJSON    `json:"matches"`
	Total     int            `json:"total"`
	Limit     int            `json:"limit"`
	Truncated bool           `json:"truncated"`
	Stats     queryStatsJSON `json:"stats"`
	Plan      planJSON       `json:"plan"`
}

func (s *Server) toQueryResponse(res *core.QueryResult) queryResponse {
	stages := make([]stageJSON, len(res.Stages))
	for i, st := range res.Stages {
		stages[i] = stageJSON{Name: st.Name, In: st.In, Out: st.Out, Micros: st.Duration.Microseconds()}
	}
	out := queryResponse{
		Matches:   toMatchJSON(res.Matches),
		Total:     res.Total,
		Limit:     res.Limit,
		Truncated: res.Truncated,
		Stats:     queryStatsJSON{searchStatsJSON: toStatsJSON(res.Search), Stages: stages},
		Plan: planJSON{
			Strategy:       string(res.Plan.Strategy),
			ProbeSource:    res.Plan.ProbeSource,
			EstSelectivity: res.Plan.EstSelectivity,
			EstCandidates:  res.Plan.EstCandidates,
			CostScan:       res.Plan.CostScan,
			CostRTree:      res.Plan.CostRTree,
			NProbe:         res.Plan.NProbe,
			CostApprox:     res.Plan.CostApprox,
			Order:          res.Plan.Order,
		},
	}
	if res.Approx != nil {
		out.Stats.Approx = &approxJSON{
			NProbe:      res.Approx.NProbe,
			Lists:       res.Approx.Lists,
			Probed:      res.Approx.Probed,
			Candidates:  res.Approx.Candidates,
			RecallProxy: res.Approx.RecallProxy,
		}
	}
	return out
}

// handleQuery is POST /v1/query: parse, plan, execute and answer one
// declarative query. A predicate-only query with no explicit limit gets
// the server's select cap, so an unbounded scan cannot return an
// arbitrarily large payload.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, queryBodyLimit)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, r, http.StatusRequestEntityTooLarge, CodeTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
		} else {
			writeError(w, r, http.StatusBadRequest, CodeBadRequest, "reading body: %v", err)
		}
		return
	}
	q, err := query.Parse(body)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if q.Limit == 0 && q.Similar == nil {
		q.Limit = s.opts.SelectLimit
	}
	res, err := s.db.QueryComposedCtx(r.Context(), q)
	if err != nil {
		s.queryError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, s.toQueryResponse(res))
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if !s.decode(w, r, s.opts.MaxIngestBodyBytes, &req) {
		return
	}
	if req.Stream == "" || req.Segment == nil || len(req.Segment.Frames) == 0 {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest,
			"stream and a non-empty segment are required")
		return
	}
	if err := req.Segment.Validate(); err != nil {
		// A frame-numbering violation gets its own code: a streaming
		// client resynchronizes on it instead of treating the batch as
		// malformed JSON.
		if errors.Is(err, video.ErrFrameOrder) {
			writeError(w, r, http.StatusUnprocessableEntity, CodeFrameOrder, "%v", err)
			return
		}
		writeError(w, r, http.StatusUnprocessableEntity, CodeBadRequest, "%v", err)
		return
	}
	stats, err := s.db.IngestSegment(req.Stream, req.Segment)
	if errors.Is(err, core.ErrReplica) {
		writeError(w, r, http.StatusForbidden, CodeReadOnlyReplica,
			"this server is a read replica; ingest on the primary")
		return
	}
	if err != nil {
		writeError(w, r, http.StatusUnprocessableEntity, CodeBadRequest, "ingest: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.db.Stats())
}

// handleHealthz is the liveness probe: it takes no database lock, so it
// answers even while a long ingest holds the write lock.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics renders the server's HTTP metrics followed by the
// process-global pipeline metrics in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
	if s.reg != obs.Default {
		obs.Default.WritePrometheus(w)
	}
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, r, http.StatusNotFound, CodeNotFound, "no such endpoint: %s", r.URL.Path)
}

func (s *Server) handleMethodNotAllowed(w http.ResponseWriter, r *http.Request, allow string) {
	w.Header().Set("Allow", allow)
	writeError(w, r, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
		"method %s not allowed on %s", r.Method, r.URL.Path)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
