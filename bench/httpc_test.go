package main

import "testing"

const promBefore = `# HELP strg_query_plans_total plans chosen
# TYPE strg_query_plans_total counter
strg_query_plans_total{strategy="index"} 10
strg_query_plans_total{strategy="rtree"} 4
# TYPE strg_ingest_seconds histogram
strg_ingest_seconds_bucket{le="0.005"} 0
strg_ingest_seconds_bucket{le="+Inf"} 3
strg_ingest_seconds_sum 0.25
strg_ingest_seconds_count 3
strg_dist_evals_total 1.5e+06
`

const promAfter = `# TYPE strg_query_plans_total counter
strg_query_plans_total{strategy="index"} 25
strg_query_plans_total{strategy="rtree"} 4
strg_query_plans_total{strategy="scan"} 2
strg_ingest_seconds_sum 0.75
strg_ingest_seconds_count 5
strg_dist_evals_total 1.75e+06
strg_http_requests_total{path="/v1/query",status="200"} 17
`

func TestParsePromAndDelta(t *testing.T) {
	before, err := parseProm([]byte(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm([]byte(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := before[`strg_query_plans_total{strategy="index"}`]; got != 10 {
		t.Fatalf("labelled counter parsed as %v, want 10", got)
	}
	if got := before["strg_dist_evals_total"]; got != 1.5e6 {
		t.Fatalf("exponent value parsed as %v", got)
	}
	d := after.delta(before)
	for series, want := range map[string]float64{
		`strg_query_plans_total{strategy="index"}`: 15,
		`strg_query_plans_total{strategy="rtree"}`: 0,
		`strg_query_plans_total{strategy="scan"}`:  2, // created between the scrapes: counts from zero
		"strg_ingest_seconds_sum":                  0.5,
		"strg_dist_evals_total":                    250000,
	} {
		if d[series] != want {
			t.Errorf("delta %s = %v, want %v", series, d[series], want)
		}
	}
	if got := d.sum("strg_query_plans_total"); got != 17 {
		t.Errorf("family sum = %v, want 17", got)
	}
	if got := d.sum("strg_query_plans_total", `strategy="index"`); got != 15 {
		t.Errorf("labelled sum = %v, want 15", got)
	}
	if got := d.sum("strg_ingest_seconds"); got != 0 {
		t.Errorf("a family name must not match its _sum/_count series, got %v", got)
	}
	if _, err := parseProm([]byte("strg_bad_line\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}
