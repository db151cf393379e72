package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"strgindex/internal/core"
	"strgindex/internal/feed"
	"strgindex/internal/replica"
)

// docMetricRE matches one strg_* mention in the prose: name characters,
// optionally one {a,b} group — an alternation when more name follows it
// (strg_x_{a,b}_total), a label list when it ends the mention
// (strg_x_total{kind}) — and an optional trailing * wildcard.
var docMetricRE = regexp.MustCompile(`strg_[a-z0-9_]*(?:\{([a-z0-9_,]+)\}?([a-z0-9_]*))?\*?`)

// documentedMetrics extracts the set of metric family names the document
// mentions; a mention ending in * stays a prefix pattern, * included.
func documentedMetrics(t *testing.T, path string) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range docMetricRE.FindAllStringSubmatch(string(doc), -1) {
		mention, group, tail := m[0], m[1], m[2]
		base, _, _ := strings.Cut(mention, "{")
		switch {
		case strings.HasSuffix(mention, "*"):
			names[strings.TrimSuffix(base, "*")+"*"] = true
		case tail != "":
			for _, alt := range strings.Split(group, ",") {
				names[base+alt+tail] = true
			}
		default:
			names[base] = true
		}
	}
	return names
}

// TestDocumentedMetricsExist renders /metrics from a fully configured
// server — durable, replication primary, live feeds, approximate tier —
// after one ingest and one query of each kind, and fails if a strg_*
// family named in DESIGN.md or README.md is absent from it: the docs may
// not describe a metric the code no longer has. (The converse, code ⊆
// docs, is the metric catalogue's job.)
func TestDocumentedMetricsExist(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Approx = core.ApproxConfig{Enabled: true}
	db, _, err := core.OpenDurable(cfg, core.Durability{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	prim, err := replica.NewPrimary(db, replica.PrimaryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prim.Close() })
	svc, err := feed.Open(feed.Options{Dir: t.TempDir(), DB: db, STRG: &cfg.STRG})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	opts := quietOptions()
	opts.Replication, opts.Feeds = prim, svc
	opts.MaxInFlight = 64 // strg-server's admission control is on by default
	ts := httptest.NewServer(NewShared(db, opts))
	t.Cleanup(ts.Close)

	ingest(t, ts, "walker", 120, 1)
	traj := [][2]float64{{16, 120}, {160, 120}, {304, 120}}
	for _, sim := range []map[string]any{
		{"trajectory": traj, "k": 3},
		{"trajectory": traj, "k": 3, "exact": true},
		{"trajectory": traj, "radius": 200},
		{"trajectory": traj, "k": 3, "mode": "approx"},
	} {
		if resp, body := postSimilar(t, ts.URL, sim); resp.StatusCode != http.StatusOK {
			t.Fatalf("similar %v: status %d: %s", sim, resp.StatusCode, body)
		}
	}
	if resp, body := postWhere(t, ts.URL, 10, map[string]any{"longer_than": 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("where: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := post(t, ts.URL+"/v1/query", map[string]any{
		"where":   map[string]any{"longer_than": 1},
		"similar": map[string]any{"trajectory": traj, "k": 3},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("composed: status %d: %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var exposed []string
	for _, line := range strings.Split(string(text), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ = strings.Cut(name, " ")
			exposed = append(exposed, name)
		}
	}
	if len(exposed) == 0 {
		t.Fatalf("/metrics exposed no families:\n%s", text)
	}

	for _, doc := range []string{"../../DESIGN.md", "../../README.md"} {
		names := documentedMetrics(t, doc)
		if len(names) == 0 {
			t.Fatalf("%s names no strg_* metric — the extraction is broken", doc)
		}
		var missing []string
		for name := range names {
			prefix, wild := strings.CutSuffix(name, "*")
			if !slices.ContainsFunc(exposed, func(family string) bool {
				return family == name || wild && strings.HasPrefix(family, prefix)
			}) {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			t.Errorf("%s documents metrics /metrics does not expose: %s", doc, strings.Join(missing, ", "))
		}
	}
}
