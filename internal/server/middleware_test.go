package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"strgindex/internal/core"
	"strgindex/internal/obs"
)

// logCapture is a slog.Handler that records rendered lines.
type logCapture struct {
	mu    sync.Mutex
	lines []string
	buf   bytes.Buffer
	h     slog.Handler
}

func newLogCapture() *logCapture {
	c := &logCapture{}
	c.h = slog.NewTextHandler(&c.buf, &slog.HandlerOptions{Level: slog.LevelInfo})
	return c
}

func (c *logCapture) Enabled(ctx context.Context, l slog.Level) bool { return true }
func (c *logCapture) WithAttrs(attrs []slog.Attr) slog.Handler       { return c }
func (c *logCapture) WithGroup(name string) slog.Handler             { return c }
func (c *logCapture) Handle(ctx context.Context, r slog.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf.Reset()
	if err := c.h.Handle(ctx, r); err != nil {
		return err
	}
	c.lines = append(c.lines, c.buf.String())
	return nil
}

func (c *logCapture) all() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.lines, "")
}

func newObservedServer(t *testing.T) (*Server, *httptest.Server, *logCapture) {
	t.Helper()
	cap := newLogCapture()
	s := NewWith(core.DefaultConfig(), Options{
		Logger:   slog.New(cap),
		Registry: obs.NewRegistry(),
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, cap
}

func TestRequestIDPropagation(t *testing.T) {
	_, ts, cap := newObservedServer(t)

	// A generated ID lands in the response header and the log line.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if len(id) != 16 {
		t.Fatalf("generated request id %q, want 16 hex chars", id)
	}
	if !strings.Contains(cap.all(), "request_id="+id) {
		t.Errorf("log missing request_id=%s:\n%s", id, cap.all())
	}

	// An incoming X-Request-ID is honored end to end.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "upstream-trace-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "upstream-trace-42" {
		t.Errorf("echoed request id = %q, want upstream-trace-42", got)
	}
	if !strings.Contains(cap.all(), "request_id=upstream-trace-42") {
		t.Errorf("log missing upstream id:\n%s", cap.all())
	}

	// An error envelope carries the same ID as the log line.
	req3, _ := http.NewRequest("GET", ts.URL+"/v1/nope", nil)
	req3.Header.Set("X-Request-ID", "err-trace-7")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var e errorEnvelope
	if err := json.NewDecoder(resp3.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error.RequestID != "err-trace-7" {
		t.Errorf("envelope request id = %q, want err-trace-7", e.Error.RequestID)
	}
	if !strings.Contains(cap.all(), "request_id=err-trace-7") {
		t.Errorf("log missing err-trace-7:\n%s", cap.all())
	}
}

func TestPanicRecoveryEnvelope(t *testing.T) {
	s, _, cap := newObservedServer(t)
	h := s.middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var e errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("panic response %q: %v", rec.Body.String(), err)
	}
	if e.Error.Code != CodeInternal || e.Error.RequestID == "" {
		t.Errorf("envelope = %+v", e)
	}
	if got := s.reg.Counter("strg_http_panics_total", "", nil).Value(); got != 1 {
		t.Errorf("panics_total = %d, want 1", got)
	}
	logs := cap.all()
	if !strings.Contains(logs, "kaboom") || !strings.Contains(logs, "handler panic") {
		t.Errorf("panic not logged:\n%s", logs)
	}
	// The 500 is still counted and timed like any request.
	c := s.reg.Counter("strg_http_requests_total", "", obs.Labels{"path": "/v1/stats", "status": "500"})
	if c.Value() != 1 {
		t.Errorf("requests_total{500} = %d, want 1", c.Value())
	}
}

func TestMiddlewareMetricsCounts(t *testing.T) {
	s, ts, _ := newObservedServer(t)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	reg := s.reg
	if got := reg.Counter("strg_http_requests_total", "", obs.Labels{"path": "/healthz", "status": "200"}).Value(); got != 3 {
		t.Errorf("requests_total = %d, want 3", got)
	}
	h := reg.Histogram("strg_http_request_seconds", "", obs.Labels{"path": "/healthz"}, nil)
	if h.Count() != 3 {
		t.Errorf("histogram count = %d, want 3", h.Count())
	}
	if h.Sum() <= 0 {
		t.Errorf("histogram sum = %v, want > 0", h.Sum())
	}
	if got := reg.Gauge("strg_http_inflight", "", nil).Value(); got != 0 {
		t.Errorf("inflight after drain = %d, want 0", got)
	}
	// Unknown paths collapse into the "other" label.
	resp, err := http.Get(ts.URL + "/totally/unknown")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := reg.Counter("strg_http_requests_total", "", obs.Labels{"path": "other", "status": "404"}).Value(); got != 1 {
		t.Errorf(`requests_total{other,404} = %d, want 1`, got)
	}
}

func TestHealthz(t *testing.T) {
	_, ts, _ := newObservedServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newObservedServer(t)
	ingest(t, ts, "walker", 120, 1)
	resp, body := postSimilar(t, ts.URL, map[string]any{
		"trajectory": [][2]float64{{16, 120}, {304, 120}},
		"k":          1,
		"exact":      true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knn status %d: %s", resp.StatusCode, body)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	// HTTP-layer metrics (per-server registry).
	for _, want := range []string{
		`strg_http_requests_total{path="/v1/segments",status="200"} 1`,
		`strg_http_requests_total{path="/v1/query",status="200"} 1`,
		`strg_http_request_seconds_bucket{path="/v1/query",le="+Inf"} 1`,
		"strg_http_inflight",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Pipeline metrics (process-global registry): these are cumulative
	// across tests, so assert presence rather than exact values.
	for _, want := range []string{
		"strg_dist_evals_total",
		"strg_index_leaf_scans_total",
		"strg_index_searches_total",
		"strg_ingest_segments_total",
		"strg_build_rag_seconds_count",
		"strg_query_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCanceledRequestCounted covers the server side of cancellation: a
// request whose context is already dead reaches the select scan, which
// aborts; the middleware records the 499-class outcome.
func TestCanceledRequestCounted(t *testing.T) {
	s, ts, cap := newObservedServer(t)
	ingest(t, ts, "walker", 120, 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	raw, _ := json.Marshal(map[string]any{"where": heading("east")})
	req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(raw)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != statusClientClosed {
		t.Fatalf("status = %d, want %d", rec.Code, statusClientClosed)
	}
	if got := s.reg.Counter("strg_http_requests_total", "", obs.Labels{"path": "/v1/query", "status": "499"}).Value(); got != 1 {
		t.Errorf("requests_total{499} = %d, want 1", got)
	}
	if !strings.Contains(cap.all(), "query canceled") {
		t.Errorf("cancellation not logged:\n%s", cap.all())
	}
}

func TestPprofGated(t *testing.T) {
	// Off by default.
	_, ts, _ := newObservedServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without flag: status %d, want 404", resp.StatusCode)
	}
	// On when enabled.
	s2 := NewWith(core.DefaultConfig(), Options{
		Logger:      slog.New(newLogCapture()),
		EnablePprof: true,
	})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof enabled: status %d, want 200", resp2.StatusCode)
	}
}
