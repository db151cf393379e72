package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"strgindex/internal/dist"
)

// updateGolden regenerates testdata/golden_e2e.json from the current
// pipeline output: go test ./internal/core/ -run TestGoldenE2E -update-golden
// (or `make golden-update`). Review the diff before committing — the file
// IS the spec of what every query answers.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden e2e corpus file")

const goldenPath = "testdata/golden_e2e.json"

// goldenMatch is one query hit with the distance pinned bit-for-bit: hex
// float formatting (%x) round-trips float64 exactly, so any kernel,
// cascade, clustering, or index change that moves an answer by even one
// ulp shows up as a diff instead of sliding under a tolerance.
type goldenMatch struct {
	Stream   string `json:"stream"`
	Segment  string `json:"segment"`
	Frames   [2]int `json:"frames"`
	Label    string `json:"label,omitempty"`
	OGID     int    `json:"og_id"`
	Distance string `json:"distance_hex"`
	// DistanceDec is informational (human-readable); comparison uses the
	// hex form.
	DistanceDec float64 `json:"distance_dec"`
}

type goldenQuery struct {
	Name    string        `json:"name"`
	Kind    string        `json:"kind"` // knn | knn_exact | range
	Query   [][2]float64  `json:"query"`
	K       int           `json:"k,omitempty"`
	Radius  float64       `json:"radius,omitempty"`
	Matches []goldenMatch `json:"matches"`
}

type goldenCorpus struct {
	// Comment documents the file's provenance for reviewers.
	Comment  string        `json:"_comment"`
	Segments int           `json:"segments"`
	OGs      int           `json:"ogs"`
	Roots    int           `json:"roots"`
	Clusters int           `json:"clusters"`
	Queries  []goldenQuery `json:"queries"`
}

func toGoldenMatches(ms []Match) []goldenMatch {
	out := make([]goldenMatch, len(ms))
	for i, m := range ms {
		out[i] = goldenMatch{
			Stream:      m.Record.Stream,
			Segment:     m.Record.Clip.Segment,
			Frames:      [2]int{m.Record.Clip.FrameStart, m.Record.Clip.FrameEnd},
			Label:       m.Record.Label,
			OGID:        m.Record.OGID,
			Distance:    strconv.FormatFloat(m.Distance, 'x', -1, 64),
			DistanceDec: m.Distance,
		}
	}
	return out
}

func toSeq(q [][2]float64) dist.Sequence {
	s := make(dist.Sequence, len(q))
	for i, v := range q {
		s[i] = dist.Vec{v[0], v[1]}
	}
	return s
}

// goldenBuild ingests the fixed corpus into a database at the given
// worker count. Everything else is pinned: stream seeds, ingest order,
// cluster seed (via DefaultConfig).
func goldenBuild(t *testing.T, workers int) *VideoDB {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Concurrency = workers
	// A tight leaf budget and fixed K=2 give the corpus real cluster
	// structure to pin (descent ordering, leaf pruning), not just a flat
	// scan of one cluster.
	cfg.Index.MaxLeafEntries = 8
	cfg.Index.NumClusters = 2
	db := Open(cfg)
	for i, seed := range []int64{101, 102, 103} {
		stream := miniStream(t, 8, seed)
		for j, seg := range stream.Segments {
			if _, err := db.IngestSegment(fmt.Sprintf("golden-%d", i), seg); err != nil {
				t.Fatalf("ingest stream %d segment %d: %v", i, j, err)
			}
		}
		// The trajectory R-tree must track the retained OGs exactly after
		// every ingest batch — the planner's probes are only sound if it
		// does.
		if err := db.CheckSpatialIndex(); err != nil {
			t.Fatalf("after stream %d: %v", i, err)
		}
	}
	return db
}

// goldenQueries runs the fixed query set and captures every answer.
func goldenQueries(t *testing.T, db *VideoDB) goldenCorpus {
	t.Helper()
	type spec struct {
		name   string
		kind   string
		query  [][2]float64
		k      int
		radius float64
	}
	specs := []spec{
		{name: "east-lane-knn", kind: "knn", k: 5,
			query: [][2]float64{{16, 120}, {46, 120}, {76, 120}, {106, 120}, {136, 120}}},
		{name: "east-lane-exact", kind: "knn_exact", k: 5,
			query: [][2]float64{{16, 120}, {46, 120}, {76, 120}, {106, 120}, {136, 120}}},
		{name: "south-drift-exact", kind: "knn_exact", k: 7,
			query: [][2]float64{{200, 30}, {200, 70}, {200, 110}, {200, 150}}},
		{name: "diagonal-knn", kind: "knn", k: 4,
			query: [][2]float64{{40, 40}, {80, 80}, {120, 120}, {160, 160}}},
		{name: "tight-range", kind: "range", radius: 950,
			query: [][2]float64{{16, 120}, {46, 120}, {76, 120}, {106, 120}}},
		{name: "wide-range", kind: "range", radius: 1200,
			query: [][2]float64{{100, 100}, {140, 100}, {180, 100}}},
	}
	st := db.Stats()
	out := goldenCorpus{
		Comment: "Golden end-to-end corpus: fixed synthetic streams (seeds 101-103) " +
			"ingested in order, then fixed queries; distances are hex floats and must " +
			"match bit-for-bit. Regenerate with -update-golden and review the diff.",
		Segments: st.Segments,
		OGs:      st.OGs,
		Roots:    st.Roots,
		Clusters: st.Clusters,
	}
	for _, sp := range specs {
		q := goldenQuery{Name: sp.name, Kind: sp.kind, Query: sp.query, K: sp.k, Radius: sp.radius}
		switch sp.kind {
		case "knn":
			q.Matches = toGoldenMatches(knn(t, db, toSeq(sp.query), sp.k))
		case "knn_exact":
			q.Matches = toGoldenMatches(knnExact(t, db, toSeq(sp.query), sp.k))
		case "range":
			q.Matches = toGoldenMatches(within(t, db, toSeq(sp.query), sp.radius))
		}
		out.Queries = append(out.Queries, q)
	}
	return out
}

// TestGoldenE2E pins the whole pipeline end to end: deterministic
// synthetic video in, bit-exact query answers out, byte-compared against
// the committed corpus file. The corpus is also required to be identical
// at worker counts 2 and 1 — parallel ingest and search must never change
// an answer.
func TestGoldenE2E(t *testing.T) {
	db := goldenBuild(t, 2)
	got := goldenQueries(t, db)
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(raw))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if string(raw) != string(want) {
		// Decode both for a targeted diff before failing with the blob.
		var wantC goldenCorpus
		if err := json.Unmarshal(want, &wantC); err == nil {
			for i := range wantC.Queries {
				if i >= len(got.Queries) {
					break
				}
				g, w := got.Queries[i], wantC.Queries[i]
				if len(g.Matches) != len(w.Matches) {
					t.Errorf("query %q: %d matches, golden has %d", g.Name, len(g.Matches), len(w.Matches))
					continue
				}
				for j := range w.Matches {
					if g.Matches[j] != w.Matches[j] {
						t.Errorf("query %q match %d:\n  got  %+v\n  want %+v", g.Name, j, g.Matches[j], w.Matches[j])
					}
				}
			}
		}
		t.Fatalf("golden corpus drifted (rerun with -update-golden only if the change is intended)")
	}

	// Worker-count invariance: the identical corpus must come out of a
	// sequential build, byte for byte.
	sraw, err := json.MarshalIndent(goldenQueries(t, goldenBuild(t, 1)), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(sraw, '\n')) != string(raw) {
		t.Fatal("corpus differs at workers=1")
	}
}
