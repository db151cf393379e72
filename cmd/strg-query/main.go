// Command strg-query runs k-NN, range and declarative queries against a
// database persisted by strg-ingest.
//
// The query trajectory is given as semicolon-separated x,y samples:
//
//	strg-query -db db.gob -traj "20,120; 160,120; 300,120" -k 5
//	strg-query -db db.gob -traj "160,10; 160,230" -range 400
//	strg-query -db db.gob -traj "..." -k 5 -exact
//
// A declarative query is one JSON DSL document (the same language the
// server's POST /v1/query accepts), inline or from a file ("-" = stdin):
//
//	strg-query -db db.gob -query '{"where":{"passes_through":{"x0":100,"y0":0,"x1":200,"y1":240}}}'
//	strg-query -db db.gob -query-file q.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"strgindex/internal/core"
	"strgindex/internal/dist"
	"strgindex/internal/query"
)

func main() {
	dbPath := flag.String("db", "", "database file written by strg-ingest (required)")
	traj := flag.String("traj", "", "query trajectory: \"x,y; x,y; ...\"")
	k := flag.Int("k", 5, "number of nearest neighbors")
	radius := flag.Float64("range", 0, "if positive, run a range query with this radius instead of k-NN")
	exact := flag.Bool("exact", false, "use the exact all-cluster search instead of Algorithm 3")
	approx := flag.Bool("approx", false, "answer the k-NN through the approximate tier (IVF candidates + exact rerank); builds the tier at load")
	nprobe := flag.Int("nprobe", 0, "IVF lists to probe with -approx (0 = default)")
	samples := flag.Int("samples", 16, "resample the query trajectory to this many samples (0 = use waypoints as-is); EGED_M penalizes length differences, so queries should be about as long as indexed OGs")
	dslInline := flag.String("query", "", "declarative query as an inline JSON DSL document")
	dslFile := flag.String("query-file", "", "declarative query from a JSON file (\"-\" = stdin)")
	flag.Parse()

	if *dbPath == "" || (*traj == "" && *dslInline == "" && *dslFile == "") {
		flag.Usage()
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	cfg.Approx.Enabled = *approx
	f, err := os.Open(*dbPath)
	fail(err)
	db, err := core.Load(f, cfg)
	fail(err)
	fail(f.Close())

	s := db.Stats()
	fmt.Printf("loaded database: %d OGs in %d clusters under %d backgrounds\n\n", s.OGs, s.Clusters, s.Roots)

	var q *query.Query
	if *dslInline != "" || *dslFile != "" {
		q = parseDSL(*dslInline, *dslFile)
	} else {
		seq, err := parseTrajectory(*traj)
		fail(err)
		if *samples > 0 && len(seq) > 1 {
			seq = dist.Resample(seq, *samples)
		}
		c := &query.SimilarClause{Trajectory: seq}
		switch {
		case *radius > 0:
			c.Radius = *radius
		case *approx:
			c.K, c.Mode, c.NProbe = *k, query.ModeApprox, *nprobe
		default:
			c.K, c.Exact = *k, *exact
		}
		q = &query.Query{Similar: c}
	}
	res, err := db.QueryComposedCtx(context.Background(), q)
	fail(err)
	printResult(res)
}

// parseDSL reads one declarative query document, inline or from a file.
func parseDSL(inline, file string) *query.Query {
	doc := []byte(inline)
	if file != "" {
		if inline != "" {
			fail(fmt.Errorf("-query and -query-file are mutually exclusive"))
		}
		var err error
		if file == "-" {
			doc, err = io.ReadAll(os.Stdin)
		} else {
			doc, err = os.ReadFile(file)
		}
		fail(err)
	}
	q, err := query.Parse(doc)
	fail(err)
	return q
}

// printResult reports the plan and its accounting alongside the matches.
func printResult(res *core.QueryResult) {
	fmt.Printf("plan: %s", res.Plan.Strategy)
	if res.Plan.ProbeSource != "" {
		fmt.Printf(" (probe %s, est. %d candidates)", res.Plan.ProbeSource, res.Plan.EstCandidates)
	}
	if len(res.Plan.Order) > 0 {
		fmt.Printf("  order: %s", strings.Join(res.Plan.Order, " > "))
	}
	fmt.Println()
	for _, st := range res.Stages {
		fmt.Printf("  stage %-16s in %6d  out %6d  (%s)\n", st.Name, st.In, st.Out, st.Duration.Round(10*time.Microsecond))
	}
	if a := res.Approx; a != nil {
		fmt.Printf("  probed %d/%d lists, reranked %d candidates (recall proxy %.2f, %d DP evals)\n",
			a.Probed, a.Lists, a.Candidates, a.RecallProxy, res.Search.DPEvaluated)
	}
	if res.Truncated {
		fmt.Printf("%d matches (of %d; truncated at limit %d):\n", len(res.Matches), res.Total, res.Limit)
	} else {
		fmt.Printf("%d matches:\n", len(res.Matches))
	}
	printMatches(res.Matches)
}

func printMatches(matches []core.Match) {
	for i, m := range matches {
		fmt.Printf("%3d. dist %8.2f  og %-4d %-28s label=%s\n",
			i+1, m.Distance, m.Record.OGID, m.Record.Clip, m.Record.Label)
	}
}

// parseTrajectory parses "x,y; x,y; ..." into a 2-D sequence.
func parseTrajectory(s string) (dist.Sequence, error) {
	var seq dist.Sequence
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		xy := strings.Split(part, ",")
		if len(xy) != 2 {
			return nil, fmt.Errorf("bad sample %q (want x,y)", part)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(xy[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("bad x in %q: %v", part, err)
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(xy[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("bad y in %q: %v", part, err)
		}
		seq = append(seq, dist.Vec{x, y})
	}
	if len(seq) == 0 {
		return nil, fmt.Errorf("empty trajectory")
	}
	return seq, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "strg-query: %v\n", err)
		os.Exit(1)
	}
}
