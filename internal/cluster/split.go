package cluster

import "strgindex/internal/dist"

// SplitDecision is the outcome of one Section 5.3 occupancy-split
// evaluation over the members of an overfull cluster node.
type SplitDecision struct {
	// Adopt reports whether the two-component model improves BIC over the
	// single-component model (Eq. 8) — the paper's split trigger.
	Adopt bool
	// Gain is BIC(M_2) − BIC(M_1); positive iff Adopt.
	Gain float64
	// One and Two are the fitted models. Two carries the new centroids and
	// memberships the caller re-keys the leaf records against when the
	// split is adopted.
	One, Two *Result
}

// SplitEval fits the one- and two-component EGED mixture models to the
// members of a cluster node and applies the BIC gate of Section 5.3:
// split iff BIC(M_2) > BIC(M_1). cfg.K is ignored (the evaluation fixes
// K = 1 and K = 2); the remaining fields — seed, distance, iteration
// budget, concurrency — parameterize both fits identically.
//
// The serving index no longer calls it: a leaf splits by the
// deterministic occupancy rule inside the commit that overfills it (see
// index.Config.MaxLeafEntries). SplitEval stays as the paper's BIC gate
// for measurement — the end-to-end harness (bench/layers.go) times one
// evaluation over its largest leaf as cluster.split_eval_ms. The verdict
// is deterministic for a fixed cfg.Seed and membership at any
// Concurrency. An error from either fit means: do not split.
func SplitEval(seqs []dist.Sequence, cfg Config) (SplitDecision, error) {
	one := cfg
	one.K = 1
	res1, err := EM(seqs, one)
	if err != nil {
		return SplitDecision{}, err
	}
	two := cfg
	two.K = 2
	res2, err := EM(seqs, two)
	if err != nil {
		return SplitDecision{}, err
	}
	gain := BIC(res2, len(seqs)) - BIC(res1, len(seqs))
	return SplitDecision{Adopt: gain > 0, Gain: gain, One: res1, Two: res2}, nil
}
