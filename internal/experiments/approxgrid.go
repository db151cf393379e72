package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"strgindex/internal/core"
	"strgindex/internal/eval"
	"strgindex/internal/query"
	"strgindex/internal/strg"
	"strgindex/internal/synth"
)

// ApproxGridSpec parameterizes one run of the approximate-tier experiment
// grid: a synthetic corpus of the given size is bulk-loaded with the IVF
// tier enabled, ground truth is established with the exact all-cluster
// search, and every probe width in NProbes is swept against it. Specs are
// plain JSON files (see internal/experiments/grids/) so the million-OG
// configuration that produced BENCH_approx.json is committed next to the
// smoke-sized one CI replays.
type ApproxGridSpec struct {
	// Name tags the run in the rendered table.
	Name string `json:"name"`
	// OGs is the corpus size (synthetic trajectories over the 48 paper
	// patterns, converted to Object Graphs).
	OGs int `json:"ogs"`
	// Queries is the number of held-out query trajectories averaged per
	// measurement; they are drawn from the same generator under a
	// different seed, so every query has true neighbors in the corpus.
	Queries int `json:"queries"`
	// K is the k of both the exact ground truth and recall@k.
	K int `json:"k"`
	// NLists is the IVF coarse-quantizer size.
	NLists int `json:"nlists"`
	// NProbes are the probe widths swept (each a separate grid row).
	NProbes []int `json:"nprobes"`
	// TrainSize overrides the tier's training buffer (0 = its default).
	TrainSize int `json:"train_size,omitempty"`
	// NoisePct is the synthetic noise level (0 = generator default).
	NoisePct float64 `json:"noise_pct,omitempty"`
	// Batch is the bulk-load commit granularity (0 = 50000).
	Batch int `json:"batch,omitempty"`
	// Seed drives corpus generation; Seed+1 drives the queries.
	Seed int64 `json:"seed"`
}

func (s ApproxGridSpec) validate() error {
	switch {
	case s.OGs <= 0:
		return fmt.Errorf("approx grid: ogs must be positive")
	case s.Queries <= 0:
		return fmt.Errorf("approx grid: queries must be positive")
	case s.K <= 0:
		return fmt.Errorf("approx grid: k must be positive")
	case s.NLists <= 0:
		return fmt.Errorf("approx grid: nlists must be positive")
	case len(s.NProbes) == 0:
		return fmt.Errorf("approx grid: nprobes must name at least one probe width")
	}
	for _, np := range s.NProbes {
		if np <= 0 {
			return fmt.Errorf("approx grid: nprobe %d must be positive", np)
		}
	}
	return nil
}

// LoadApproxGridSpec reads a JSON grid spec from disk.
func LoadApproxGridSpec(path string) (ApproxGridSpec, error) {
	var spec ApproxGridSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	if err := spec.validate(); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// ApproxGridRow is one probe width's measurement.
type ApproxGridRow struct {
	NProbe int
	// Probed is the per-query mean of lists actually visited (== NProbe
	// clamped to the trained list count).
	Probed float64
	// Candidates is the per-query mean rerank set size.
	Candidates float64
	// NsPerQuery is the mean wall time per query.
	NsPerQuery float64
	// Recall is the mean recall@K against the exact ground truth.
	Recall float64
	// Speedup is exact ns/query over this row's ns/query.
	Speedup float64
}

// ApproxGridResult is one executed grid.
type ApproxGridResult struct {
	Spec ApproxGridSpec
	// GenTime and LoadTime split corpus preparation from bulk ingest
	// (which includes embedding and IVF training).
	GenTime  time.Duration
	LoadTime time.Duration
	// ExactNsPerQuery is the ground-truth baseline: the mean per-query
	// wall time of the exact all-cluster search over the same corpus.
	ExactNsPerQuery float64
	Rows            []ApproxGridRow
}

// ApproxGrid runs one grid spec end to end. Progress lines go to progress
// when non-nil (the million-OG run takes minutes; silence reads as a hang).
func ApproxGrid(spec ApproxGridSpec, progress func(format string, args ...any)) (*ApproxGridResult, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	say := func(format string, args ...any) {
		if progress != nil {
			progress(format, args...)
		}
	}
	res := &ApproxGridResult{Spec: spec}

	// Corpus: the 48 synthetic patterns at whatever per-pattern count
	// covers the requested size, truncated exactly.
	perPattern := (spec.OGs + 47) / 48
	start := time.Now()
	corpus, err := synth.Generate(synth.Config{
		PerPattern: perPattern,
		NoisePct:   spec.NoisePct,
		Seed:       spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	items := corpus.Items
	labels := corpus.Labels
	// The generator emits pattern-major order; a corpus sorted by class
	// would bias the tier's training buffer (the first TrainSize arrivals)
	// toward a handful of patterns and skew the inverted lists. Shuffle
	// deterministically so arrivals look like real interleaved traffic.
	rng := rand.New(rand.NewSource(spec.Seed + 2))
	rng.Shuffle(len(items), func(i, j int) {
		items[i], items[j] = items[j], items[i]
		labels[i], labels[j] = labels[j], labels[i]
	})
	if len(items) > spec.OGs {
		items = items[:spec.OGs]
	}
	res.GenTime = time.Since(start)
	say("generated %d trajectories in %v", len(items), res.GenTime.Round(time.Millisecond))

	// Queries: a fresh draw under Seed+1 — same distribution, held out.
	qset, err := synth.Generate(synth.Config{
		PerPattern: (spec.Queries + 47) / 48,
		NoisePct:   spec.NoisePct,
		Seed:       spec.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	queries := qset.Items
	if len(queries) > spec.Queries {
		queries = queries[:spec.Queries]
	}

	// One flat leaf, no splits, no trajectory R-tree: the grid measures
	// the similarity tiers, not cluster navigation.
	cfg := core.DefaultConfig()
	cfg.DisableTrajIndex = true
	cfg.Index.MaxLeafEntries = spec.OGs + 1
	cfg.Approx = core.ApproxConfig{
		Enabled:   true,
		NLists:    spec.NLists,
		TrainSize: spec.TrainSize,
		Seed:      spec.Seed,
	}
	db := core.Open(cfg)

	batch := spec.Batch
	if batch <= 0 {
		batch = 50000
	}
	start = time.Now()
	for lo := 0; lo < len(items); {
		hi := lo + batch
		if lo == 0 && batch > 512 {
			// The first segment's barycenter becomes the one leaf's
			// centroid; it stays 512 items so the leaf keys, and with
			// them the grid's numbers, match earlier runs.
			hi = 512
		}
		if hi > len(items) {
			hi = len(items)
		}
		ogs := make([]*strg.OG, hi-lo)
		for i := range ogs {
			ogs[i] = synth.AsOG(lo+i, items[lo+i], corpus.Patterns[labels[lo+i]].Name)
		}
		if err := db.IngestTrajectories("grid", ogs); err != nil {
			return nil, err
		}
		say("loaded %d/%d (%v)", hi, len(items), time.Since(start).Round(time.Millisecond))
		lo = hi
	}
	res.LoadTime = time.Since(start)

	// Ground truth: the exact cascade over every OG, timed as the
	// baseline the speedup column divides against.
	ctx := context.Background()
	truth := make([][]int, len(queries))
	start = time.Now()
	for qi, q := range queries {
		r, err := db.QueryComposedCtx(ctx, &query.Query{
			Similar: &query.SimilarClause{Trajectory: q, K: spec.K, Exact: true},
		})
		if err != nil {
			return nil, err
		}
		truth[qi] = matchIDs(r.Matches)
	}
	exactTotal := time.Since(start)
	res.ExactNsPerQuery = float64(exactTotal.Nanoseconds()) / float64(len(queries))
	say("exact ground truth: %d queries in %v (%.2f ms/query)",
		len(queries), exactTotal.Round(time.Millisecond), res.ExactNsPerQuery/1e6)

	for _, nprobe := range spec.NProbes {
		var row ApproxGridRow
		row.NProbe = nprobe
		var recallSum, probedSum, candSum, dpSum float64
		var lbqSum, lbeSum, abSum float64
		start = time.Now()
		for qi, q := range queries {
			r, err := db.QueryComposedCtx(ctx, &query.Query{
				Similar: &query.SimilarClause{Trajectory: q, K: spec.K, Mode: query.ModeApprox, NProbe: nprobe},
			})
			if err != nil {
				return nil, err
			}
			ms, st, info := r.Matches, r.Search, r.Approx
			recallSum += eval.RecallAtK(matchIDs(ms), truth[qi], spec.K)
			probedSum += float64(info.Probed)
			candSum += float64(info.Candidates)
			dpSum += float64(st.DPEvaluated)
			lbqSum += float64(st.LBQuickPruned)
			lbeSum += float64(st.LBEnvelopePruned)
			abSum += float64(st.DPAbandoned)
		}
		total := time.Since(start)
		n := float64(len(queries))
		row.NsPerQuery = float64(total.Nanoseconds()) / n
		row.Recall = recallSum / n
		row.Probed = probedSum / n
		row.Candidates = candSum / n
		row.Speedup = res.ExactNsPerQuery / row.NsPerQuery
		res.Rows = append(res.Rows, row)
		say("nprobe %d: recall@%d %.3f, %.2f ms/query (%.1fx exact, lbq %.0f lbe %.0f ab %.0f dp %.0f)",
			nprobe, spec.K, row.Recall, row.NsPerQuery/1e6, row.Speedup, lbqSum/n, lbeSum/n, abSum/n, dpSum/n)
	}
	return res, nil
}

func matchIDs(ms []core.Match) []int {
	ids := make([]int, len(ms))
	for i, m := range ms {
		ids[i] = m.Record.OGID
	}
	return ids
}

// Render prints the grid as an aligned table.
func (r *ApproxGridResult) Render() string {
	t := &Table{
		Title: fmt.Sprintf("Approximate tier grid %q: %d OGs, %d lists, %d queries, k=%d (gen %v, load %v)",
			r.Spec.Name, r.Spec.OGs, r.Spec.NLists, r.Spec.Queries, r.Spec.K,
			r.GenTime.Round(time.Millisecond), r.LoadTime.Round(time.Millisecond)),
		Header: []string{"nprobe", "probed", "candidates", "ms/query", fmt.Sprintf("recall@%d", r.Spec.K), "speedup"},
	}
	t.Rows = append(t.Rows, []string{
		"exact", "-", fmt.Sprintf("%d", r.Spec.OGs),
		fmt.Sprintf("%.2f", r.ExactNsPerQuery/1e6), "1.000", "1.0x",
	})
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.NProbe),
			fmt.Sprintf("%.0f", row.Probed),
			fmt.Sprintf("%.0f", row.Candidates),
			fmt.Sprintf("%.2f", row.NsPerQuery/1e6),
			fmt.Sprintf("%.3f", row.Recall),
			fmt.Sprintf("%.1fx", row.Speedup),
		})
	}
	return t.Render()
}

// BenchPoint mirrors cmd/benchjson's Point schema so grid results land in
// the same BENCH_*.json shape the perf floors read. Custom columns ride
// in Extra exactly like testing.B.ReportMetric units would.
type BenchPoint struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// BenchPoints flattens the grid into benchjson points: one exact baseline
// plus one point per probe width, each carrying recall@k and the mean
// rerank set size as custom metrics.
func (r *ApproxGridResult) BenchPoints() []BenchPoint {
	recallKey := fmt.Sprintf("recall@%d/op", r.Spec.K)
	pts := []BenchPoint{{
		Name:       "BenchmarkApproxGrid/mode=exact",
		Iterations: int64(r.Spec.Queries),
		NsPerOp:    r.ExactNsPerQuery,
		Extra:      map[string]float64{recallKey: 1, "ogs/op": float64(r.Spec.OGs)},
	}}
	for _, row := range r.Rows {
		pts = append(pts, BenchPoint{
			Name:       fmt.Sprintf("BenchmarkApproxGrid/mode=approx/nprobe=%d", row.NProbe),
			Iterations: int64(r.Spec.Queries),
			NsPerOp:    row.NsPerQuery,
			Extra: map[string]float64{
				recallKey:  row.Recall,
				"cand/op":  row.Candidates,
				"lists/op": row.Probed,
			},
		})
	}
	return pts
}

// WriteBenchJSON writes the grid's points as a BENCH_*.json file.
func (r *ApproxGridResult) WriteBenchJSON(path string) error {
	raw, err := json.MarshalIndent(r.BenchPoints(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
