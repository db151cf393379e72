package index

import "strgindex/internal/obs"

// Process-global search instrumentation, registered against the default
// observability registry (the tree is generic and created per database, so
// per-instance handles would have to thread through every search call for
// no operational gain — one process serves one database).
//
//	strg_index_searches_total{kind}   searches served, by search policy
//	strg_index_node_visits_total      centroid records visited (one EGED
//	                                  evaluation each) during descents
//	strg_index_leaf_scans_total       leaf nodes actually scanned
//	strg_index_leaves_pruned_total    candidate leaves skipped by the
//	                                  metric lower bound (or, for the
//	                                  approximate KNN, by single-cluster
//	                                  descent)
//	strg_index_pruned_ratio           per-search pruned/candidates ratio
var (
	searchesKNN = obs.Default.Counter("strg_index_searches_total",
		"index searches served, by kind", obs.Labels{"kind": "knn"})
	searchesKNNExact = obs.Default.Counter("strg_index_searches_total",
		"index searches served, by kind", obs.Labels{"kind": "knn_exact"})
	searchesRange = obs.Default.Counter("strg_index_searches_total",
		"index searches served, by kind", obs.Labels{"kind": "range"})
	nodeVisits = obs.Default.Counter("strg_index_node_visits_total",
		"cluster-node centroid records visited during search descents", nil)
	leafScans = obs.Default.Counter("strg_index_leaf_scans_total",
		"leaf nodes scanned by searches", nil)
	leavesPruned = obs.Default.Counter("strg_index_leaves_pruned_total",
		"candidate leaves skipped without scanning", nil)
	prunedRatio = obs.Default.Histogram("strg_index_pruned_ratio",
		"per-search fraction of candidate leaves pruned", nil, obs.RatioBuckets)
)

// Distance-cascade instrumentation: per-record disposition counts across
// the filter-and-refine stages (see SearchStats for the taxonomy).
//
//	strg_dist_lb_pruned_total{stage}   records rejected by a lower bound
//	strg_dist_lb_passed_total          records that survived both bounds
//	                                   and reached the DP kernel
//	strg_dist_dp_abandoned_total       DP kernels cut short by the
//	                                   early-abandoning threshold
//
// Summed over its stages, lb_pruned plus lb_passed counts every record
// that entered the cascade exactly once (SearchStats.Records).
var (
	lbPrunedQuick = obs.Default.Counter("strg_dist_lb_pruned_total",
		"cascade records rejected by a lower bound, by stage",
		obs.Labels{"stage": "quick"})
	lbPrunedEnvelope = obs.Default.Counter("strg_dist_lb_pruned_total",
		"cascade records rejected by a lower bound, by stage",
		obs.Labels{"stage": "envelope"})
	lbPassed = obs.Default.Counter("strg_dist_lb_passed_total",
		"cascade records that passed all lower bounds into the DP kernel", nil)
	dpAbandoned = obs.Default.Counter("strg_dist_dp_abandoned_total",
		"DP evaluations abandoned early above the pruning threshold", nil)
)

// Split instrumentation: the occupancy splits commits run.
//
//	strg_index_split_evals_total  K = 2 EM fits run by splits
//	strg_index_splits_total       leaf splits performed
var (
	splitEvals = obs.Default.Counter("strg_index_split_evals_total",
		"K = 2 EM fits run by occupancy splits", nil)
	splits = obs.Default.Counter("strg_index_splits_total",
		"leaf splits performed by the occupancy rule", nil)
)

// observeCascade records one search's cascade accounting.
func observeCascade(st SearchStats) {
	if st.LBQuickPruned > 0 {
		lbPrunedQuick.Add(int64(st.LBQuickPruned))
	}
	if st.LBEnvelopePruned > 0 {
		lbPrunedEnvelope.Add(int64(st.LBEnvelopePruned))
	}
	if passed := st.DPEvaluated + st.DPAbandoned; passed > 0 {
		lbPassed.Add(int64(passed))
	}
	if st.DPAbandoned > 0 {
		dpAbandoned.Add(int64(st.DPAbandoned))
	}
}

// observeSearch records one search's leaf accounting: scanned leaves,
// pruned leaves and the pruning ratio over the candidate set.
func observeSearch(candidates, scanned int) {
	leafScans.Add(int64(scanned))
	pruned := candidates - scanned
	if pruned > 0 {
		leavesPruned.Add(int64(pruned))
	}
	if candidates > 0 {
		prunedRatio.Observe(float64(pruned) / float64(candidates))
	}
}
