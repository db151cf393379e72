package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"strgindex/internal/core"
	"strgindex/internal/geom"
	"strgindex/internal/graph"
	"strgindex/internal/video"
)

// quietOptions silences per-request logging in tests.
func quietOptions() Options {
	return Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

// testSegment builds a small scene with one eastbound walker.
func testSegment(t *testing.T, label string, y float64, seed int64) *video.Segment {
	t.Helper()
	seg, err := video.Generate(video.SceneConfig{
		Name: "seg-" + label, Width: 320, Height: 240, FPS: 12, Frames: 20,
		BackgroundRows: 3, BackgroundCols: 4, Jitter: 0.8, Seed: seed,
		Objects: []video.ObjectSpec{{
			Label: label,
			Parts: []video.PartSpec{
				{Offset: geom.Vec(0, -16), Size: 100, Color: graph.Color{R: 0.8, G: 0.65, B: 0.5}},
				{Offset: geom.Vec(0, 0), Size: 350, Color: graph.Color{R: 0.7, G: 0.2, B: 0.4}},
				{Offset: geom.Vec(0, 17), Size: 250, Color: graph.Color{R: 0.2, G: 0.3, B: 0.5}},
			},
			Path:  []geom.Point{geom.Pt(16, y), geom.Pt(304, y)},
			Start: 0, End: 20,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewWith(core.DefaultConfig(), quietOptions())
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// decodeQuery parses the /v1/query response envelope.
func decodeQuery(t *testing.T, body []byte) queryResponse {
	t.Helper()
	var q queryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatalf("decoding query response %s: %v", body, err)
	}
	return q
}

// postSimilar posts the pure-similarity query {"similar": sim} to
// /v1/query: sim carries "trajectory" plus "k" (with optional "exact" or
// "mode") or "radius".
func postSimilar(t *testing.T, base string, sim map[string]any) (*http.Response, []byte) {
	t.Helper()
	return post(t, base+"/v1/query", map[string]any{"similar": sim})
}

// postWhere posts the predicate query {"where": {"and": conjuncts}} to
// /v1/query, with a limit when nonzero.
func postWhere(t *testing.T, base string, limit int, conjuncts ...map[string]any) (*http.Response, []byte) {
	t.Helper()
	doc := map[string]any{"where": map[string]any{"and": conjuncts}}
	if limit != 0 {
		doc["limit"] = limit
	}
	return post(t, base+"/v1/query", doc)
}

// heading is the {"heading": {"dir": dir}} predicate.
func heading(dir string) map[string]any {
	return map[string]any{"heading": map[string]string{"dir": dir}}
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func ingest(t *testing.T, ts *httptest.Server, label string, y float64, seed int64) {
	t.Helper()
	resp, body := post(t, ts.URL+"/v1/segments", map[string]any{
		"stream":  "cam0",
		"segment": testSegment(t, label, y, seed),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
}

func TestIngestAndStats(t *testing.T) {
	_, ts := newTestServer(t)
	ingest(t, ts, "walker", 120, 1)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats core.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 1 || stats.OGs != 1 {
		t.Errorf("stats = %+v, want 1 segment, 1 OG", stats)
	}
}

func TestKNNQuery(t *testing.T) {
	_, ts := newTestServer(t)
	ingest(t, ts, "low", 180, 1)
	ingest(t, ts, "high", 60, 2)

	resp, body := postSimilar(t, ts.URL, map[string]any{
		"trajectory": [][2]float64{{16, 60}, {160, 60}, {304, 60}},
		"k":          1,
		"exact":      true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	q := decodeQuery(t, body)
	if len(q.Matches) != 1 {
		t.Fatalf("matches = %d, want 1", len(q.Matches))
	}
	if q.Matches[0].Label != "high" {
		t.Errorf("top match label = %v, want high", q.Matches[0].Label)
	}
	if q.Stats.Records == 0 {
		t.Errorf("stats.records = 0, want > 0 (%s)", body)
	}
	if got := q.Stats.LBQuickPruned + q.Stats.LBEnvelopePruned +
		q.Stats.DPEvaluated + q.Stats.DPAbandoned; got != q.Stats.Records {
		t.Errorf("stats dispositions = %d, want records = %d (%s)", got, q.Stats.Records, body)
	}
}

func TestRangeQuery(t *testing.T) {
	_, ts := newTestServer(t)
	ingest(t, ts, "walker", 120, 1)
	resp, body := postSimilar(t, ts.URL, map[string]any{
		"trajectory": [][2]float64{{160, 120}},
		"radius":     1e9,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	q := decodeQuery(t, body)
	if len(q.Matches) != 1 {
		t.Errorf("matches = %d, want 1", len(q.Matches))
	}
}

func TestSelectQuery(t *testing.T) {
	_, ts := newTestServer(t)
	ingest(t, ts, "walker", 120, 1)
	resp, body := postWhere(t, ts.URL, 0, heading("east"), map[string]any{
		"passes_through": map[string]float64{"x0": 100, "y0": 80, "x1": 220, "y1": 160},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	sel := decodeQuery(t, body)
	if len(sel.Matches) != 1 || sel.Total != 1 || sel.Truncated {
		t.Errorf("select = %+v, want 1 untruncated match (%s)", sel, body)
	}
	// The opposite heading matches nothing.
	_, body = postWhere(t, ts.URL, 0, heading("west"))
	if sel := decodeQuery(t, body); len(sel.Matches) != 0 || sel.Total != 0 {
		t.Errorf("westbound matches = %+v, want 0", sel)
	}
}

func TestSelectLimitTruncates(t *testing.T) {
	_, ts := newTestServer(t)
	ingest(t, ts, "a", 60, 1)
	ingest(t, ts, "b", 120, 2)
	ingest(t, ts, "c", 180, 3)
	resp, body := postWhere(t, ts.URL, 2, heading("east"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	sel := decodeQuery(t, body)
	if len(sel.Matches) != 2 || sel.Total != 3 || !sel.Truncated || sel.Limit != 2 {
		t.Errorf("select = %+v, want 2/3 truncated at limit 2", sel)
	}
	// A negative limit is rejected.
	resp, _ = postWhere(t, ts.URL, -1, heading("east"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative limit status = %d, want 400", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	tests := []struct {
		name string
		path string
		body any
	}{
		{"ingest empty", "/v1/segments", map[string]any{"stream": "x"}},
		{"ingest no stream", "/v1/segments", map[string]any{"segment": testSegment(t, "a", 100, 1)}},
		{"knn empty trajectory", "/v1/query", map[string]any{"similar": map[string]any{"k": 3}}},
		{"range no radius", "/v1/query", map[string]any{"similar": map[string]any{"trajectory": [][2]float64{{1, 1}}}}},
		{"select no fields", "/v1/query", map[string]any{}},
		{"select bad heading", "/v1/query", map[string]any{"where": heading("up")}},
		{"legacy flat fields", "/v1/query", map[string]any{"trajectory": [][2]float64{{1, 1}}, "k": 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+tt.path, tt.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400 (%s)", resp.StatusCode, body)
			}
			var e errorEnvelope
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("envelope: %s: %v", body, err)
			}
			if e.Error.Code != CodeBadRequest {
				t.Errorf("code = %q, want %q (%s)", e.Error.Code, CodeBadRequest, body)
			}
			if e.Error.Message == "" || e.Error.RequestID == "" {
				t.Errorf("envelope incomplete: %s", body)
			}
			if got := resp.Header.Get("X-Request-ID"); got != e.Error.RequestID {
				t.Errorf("header request id %q != envelope %q", got, e.Error.RequestID)
			}
		})
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status %d", resp.StatusCode)
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t)
	// A query body over the 1 MiB query limit: a huge (valid) JSON string.
	big := append([]byte(`{"similar": {"trajectory": [[1,1]], "k": 1}, "pad": "`), bytes.Repeat([]byte("x"), 2<<20)...)
	big = append(big, []byte(`"}`)...)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var e errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != CodeTooLarge {
		t.Errorf("code = %q, want %q", e.Error.Code, CodeTooLarge)
	}
}

func TestNotFoundEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	var e errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != CodeNotFound || e.Error.RequestID == "" {
		t.Errorf("envelope = %+v", e)
	}
}

// TestRemovedQueryRoutesAnswer404: the three legacy query routes are gone,
// not redirected — they answer the ordinary not_found envelope, with no
// Deprecation header left over from their deprecated phase.
func TestRemovedQueryRoutesAnswer404(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/v1/query/knn", "/v1/query/range", "/v1/query/select"} {
		resp, body := post(t, ts.URL+path, map[string]any{
			"trajectory": [][2]float64{{16, 120}, {304, 120}}, "k": 1, "radius": 10, "heading": "east",
		})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404 (%s)", path, resp.StatusCode, body)
		}
		var e errorEnvelope
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: envelope %s: %v", path, body, err)
		}
		if e.Error.Code != CodeNotFound || e.Error.RequestID == "" {
			t.Errorf("%s: envelope = %+v", path, e)
		}
		if resp.Header.Get("Deprecation") != "" || resp.Header.Get("Link") != "" {
			t.Errorf("%s: deprecation headers on a removed route: %v", path, resp.Header)
		}
	}
}

func TestMethodRouting(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET on POST route: status %d", resp.StatusCode)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t)
	ingest(t, ts, "walker", 120, 1)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 20; i++ {
				resp, _ := postSimilar(t, ts.URL, map[string]any{
					"trajectory": [][2]float64{{16, 120}, {304, 120}},
					"k":          2,
				})
				if resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewFromReader(t *testing.T) {
	// Build and persist a database, then serve it.
	db := core.Open(core.DefaultConfig())
	if _, err := db.IngestSegment("cam0", testSegment(t, "walker", 120, 1)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := NewFromReaderWith(&buf, core.DefaultConfig(), quietOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(loaded)
	defer ts2.Close()
	resp, body := postSimilar(t, ts2.URL, map[string]any{
		"trajectory": [][2]float64{{16, 120}, {304, 120}},
		"k":          1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	q := decodeQuery(t, body)
	if len(q.Matches) != 1 || q.Matches[0].Label != "walker" {
		t.Errorf("matches = %s", body)
	}
	if _, err := NewFromReaderWith(bytes.NewReader([]byte("junk")), core.DefaultConfig(), quietOptions()); err == nil {
		t.Error("NewFromReaderWith accepted junk")
	}
}

func TestMethodNotAllowedEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q, want POST", allow)
	}
	var e errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != CodeMethodNotAllowed || e.Error.RequestID == "" {
		t.Errorf("envelope = %+v", e)
	}
}

func TestSelectSpeedAndFrames(t *testing.T) {
	_, ts := newTestServer(t)
	ingest(t, ts, "walker", 120, 1)
	resp, body := postWhere(t, ts.URL, 0,
		map[string]any{"speed": map[string]float64{"min": 5}},
		map[string]any{"during": map[string]int{"from": 0, "to": 100}},
	)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if sel := decodeQuery(t, body); len(sel.Matches) != 1 {
		t.Errorf("matches = %d, want 1 (%s)", len(sel.Matches), body)
	}
	// Impossible speed band.
	_, body = postWhere(t, ts.URL, 0, map[string]any{"speed": map[string]float64{"min": 1e6}})
	if sel := decodeQuery(t, body); len(sel.Matches) != 0 {
		t.Errorf("impossible speed matched %d", len(sel.Matches))
	}
}

// TestQueryApproxDisabledEnvelope: asking for the approximate tier on a
// server without it must answer a clean versioned 400 with the stable
// approx_disabled code — a client configuration error, never a 500.
func TestQueryApproxDisabledEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	ingest(t, ts, "walker", 120, 1)

	resp, body := post(t, ts.URL+"/v1/query", map[string]any{
		"similar": map[string]any{
			"trajectory": [][2]float64{{16, 120}, {160, 120}, {304, 120}},
			"k":          3,
			"mode":       "approx",
		},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decoding error envelope %s: %v", body, err)
	}
	if env.Error.Code != CodeApproxDisabled {
		t.Errorf("code %q, want %q", env.Error.Code, CodeApproxDisabled)
	}
	if env.Error.RequestID == "" {
		t.Error("error envelope lost the request id")
	}

	// Malformed approx knobs are plain validation errors (bad_request):
	// the DSL layer rejects them before any tier question arises.
	resp, body = post(t, ts.URL+"/v1/query", map[string]any{
		"similar": map[string]any{
			"trajectory":    [][2]float64{{16, 120}, {304, 120}},
			"k":             3,
			"mode":          "approx",
			"nprobe":        4,
			"recall_target": 0.9,
		},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("conflicting knobs: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != CodeBadRequest {
		t.Errorf("conflicting knobs: code %q (err %v), want %q", env.Error.Code, err, CodeBadRequest)
	}
}

// TestQueryApproxEndToEnd: with the tier enabled, "mode": "approx"
// answers through strategy approx and the envelope carries the probe
// accounting alongside the exact rerank's search stats.
func TestQueryApproxEndToEnd(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Approx = core.ApproxConfig{Enabled: true, NLists: 2, TrainSize: 2}
	s := NewWith(cfg, quietOptions())
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	for i := 0; i < 3; i++ {
		ingest(t, ts, "walker", 60+40*float64(i), int64(i+1))
	}

	resp, body := post(t, ts.URL+"/v1/query", map[string]any{
		"similar": map[string]any{
			"trajectory":    [][2]float64{{16, 120}, {160, 120}, {304, 120}},
			"k":             2,
			"mode":          "approx",
			"recall_target": 1,
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	res := decodeQuery(t, body)
	if res.Plan.Strategy != "approx" || res.Plan.NProbe == 0 {
		t.Errorf("plan = %+v, want strategy approx with a resolved nprobe", res.Plan)
	}
	if res.Stats.Approx == nil {
		t.Fatalf("no approx accounting in %s", body)
	}
	if res.Stats.Approx.Probed != res.Stats.Approx.Lists || res.Stats.Approx.RecallProxy != 1 {
		t.Errorf("recall_target 1 probed %d/%d lists (proxy %g), want all",
			res.Stats.Approx.Probed, res.Stats.Approx.Lists, res.Stats.Approx.RecallProxy)
	}
	if len(res.Matches) == 0 || res.Stats.Records == 0 {
		t.Errorf("empty approx answer: %d matches, %d reranked", len(res.Matches), res.Stats.Records)
	}
}
