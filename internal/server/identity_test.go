package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"strgindex/internal/core"
	"strgindex/internal/query"
)

// identityHarness is one server plus a reference database built from the
// same configuration and fed the same segments in the same order. Every
// HTTP query the test issues is mirrored by one direct core call on the
// reference, and stats must agree byte for byte.
type identityHarness struct {
	srv *Server
	ts  *httptest.Server
	ref *core.SharedDB
}

func newIdentityHarness(t *testing.T, shards int, disableCascade bool) *identityHarness {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Index.Shards = shards
	cfg.Concurrency = 2
	cfg.Index.DisableCascade = disableCascade
	s := NewWith(cfg, quietOptions())
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	h := &identityHarness{srv: s, ts: ts, ref: core.OpenShared(cfg)}
	for i, spec := range []struct {
		label string
		y     float64
		seed  int64
	}{{"east-mid", 120, 7}, {"east-high", 60, 8}, {"east-low", 180, 9}} {
		ingest(t, ts, spec.label, spec.y, spec.seed)
		if _, err := h.ref.IngestSegment("cam0", testSegment(t, spec.label, spec.y, spec.seed)); err != nil {
			t.Fatalf("reference ingest %d: %v", i, err)
		}
	}
	return h
}

// zeroMicros strips the only nondeterministic field (stage wall time)
// before whole-envelope comparison.
func zeroMicros(r queryResponse) queryResponse {
	stages := make([]stageJSON, len(r.Stats.Stages))
	copy(stages, r.Stats.Stages)
	for i := range stages {
		stages[i].Micros = 0
	}
	r.Stats.Stages = stages
	return r
}

// TestLegacyEndpointsByteIdentical is the /v1/query identity test (the
// name predates the removal of the legacy routes it once also covered):
// with the lower-bound cascade both on and off, and under each value of
// the deprecated, ignored index.Config.Shards knob older callers still set,
// the HTTP envelope of each query shape — matches, totals, search
// accounting, stages and plan — is byte-identical to what one mirrored
// QueryComposedCtx call on the reference database produces. The route
// adds nothing to a query but the default select cap.
func TestLegacyEndpointsByteIdentical(t *testing.T) {
	traj := [][2]float64{{16, 120}, {106, 120}, {196, 120}}
	where := map[string]any{"and": []any{
		map[string]any{"passes_through": map[string]any{"x0": 140, "y0": 0, "x1": 180, "y1": 240}},
		map[string]any{"heading": map[string]any{"dir": "east"}},
	}}
	docs := []struct {
		name     string
		doc      map[string]any
		strategy query.Strategy // "" = the planner's choice
	}{
		{"knn", map[string]any{"similar": map[string]any{"trajectory": traj, "k": 3}}, query.StrategyIndex},
		{"exact", map[string]any{"similar": map[string]any{"trajectory": traj, "k": 3, "exact": true}}, query.StrategyIndex},
		{"range", map[string]any{"similar": map[string]any{"trajectory": traj, "radius": 4000.0}}, query.StrategyIndex},
		{"limit", map[string]any{"similar": map[string]any{"trajectory": traj, "k": 3}, "limit": 2}, query.StrategyIndex},
		{"where", map[string]any{"where": where}, ""},
		{"composed", map[string]any{"where": where, "similar": map[string]any{"trajectory": traj, "k": 2}}, ""},
	}
	for _, noCascade := range []bool{false, true} {
		name := map[bool]string{false: "cascade", true: "exact-only"}[noCascade]
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				h := newIdentityHarness(t, shards, noCascade)
				for _, d := range docs {
					resp, raw := post(t, h.ts.URL+"/v1/query", d.doc)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s: status %d: %s", d.name, resp.StatusCode, raw)
					}
					if resp.Header.Get("Deprecation") != "" {
						t.Errorf("%s: /v1/query marked deprecated", d.name)
					}
					got := decodeQuery(t, raw)
					if d.strategy != "" && got.Plan.Strategy != string(d.strategy) {
						t.Errorf("%s: plan strategy = %q, want %s", d.name, got.Plan.Strategy, d.strategy)
					}

					doc, err := json.Marshal(d.doc)
					if err != nil {
						t.Fatal(err)
					}
					q, err := query.Parse(doc)
					if err != nil {
						t.Fatal(err)
					}
					if q.Limit == 0 && q.Similar == nil {
						q.Limit = defaultSelectLimit
					}
					res, err := h.ref.QueryComposedCtx(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					// Through JSON, like the server's answer, so both sides
					// carry the same nil-versus-empty slices.
					wantRaw, err := json.Marshal(h.srv.toQueryResponse(res))
					if err != nil {
						t.Fatal(err)
					}
					want := decodeQuery(t, wantRaw)
					if len(got.Matches) == 0 {
						t.Errorf("%s: no matches; the identity would hold vacuously (%s)", d.name, raw)
					}
					if !reflect.DeepEqual(zeroMicros(got), zeroMicros(want)) {
						t.Errorf("%s: HTTP envelope %+v, core %+v", d.name, zeroMicros(got), zeroMicros(want))
					}
				}
			})
		}
	}
}
