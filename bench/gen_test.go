package main

import "testing"

func bodiesOf[T any](ops []T, body func(*T) []byte) [][]byte {
	out := make([][]byte, len(ops))
	for i := range ops {
		out[i] = body(&ops[i])
	}
	return out
}

// The same seed must give byte-identical inputs, a different seed
// different ones — for every generator a workload draws from.
func TestSeedDeterminism(t *testing.T) {
	gens := map[string]func(seed int64) (string, error){
		"similarity ops": func(seed int64) (string, error) {
			ops, err := genQueryOps(seed, 200, similarityMix)
			return opListHash(bodiesOf(ops, func(o *queryOp) []byte { return o.body })...), err
		},
		"planned ops": func(seed int64) (string, error) {
			ops, err := genQueryOps(seed, 200, plannedMix)
			return opListHash(bodiesOf(ops, func(o *queryOp) []byte { return o.body })...), err
		},
		"segments": func(seed int64) (string, error) {
			ops, err := genSegmentOps(seed, 12)
			return opListHash(bodiesOf(ops, func(o *segmentOp) []byte { return o.body })...), err
		},
		"feed batches": func(seed int64) (string, error) {
			ops, err := genFeedBatches(seed, 16, feedFrames)
			return opListHash(bodiesOf(ops, func(o *feedBatch) []byte { return o.body })...), err
		},
		"subscriptions": func(seed int64) (string, error) {
			subs, err := genSubscriptions(seed, 50)
			return opListHash(subs...), err
		},
		"corpus": func(seed int64) (string, error) {
			ogs, err := genCorpus(seed, 100)
			if err != nil {
				return "", err
			}
			bodies := make([][]byte, len(ogs))
			for i, og := range ogs {
				bodies[i] = []byte(trajJSON(og.Sequence()))
			}
			return opListHash(bodies...), nil
		},
	}
	for name, gen := range gens {
		a, err := gen(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := gen(7)
		c, _ := gen(8)
		if a != b {
			t.Errorf("%s: seed 7 gave %s then %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op list %s", name, a)
		}
	}
}

func TestMixesAreExact(t *testing.T) {
	count := func(mix []string) map[string]int {
		m := map[string]int{}
		for _, c := range mix {
			m[c]++
		}
		return m
	}
	if got := count(similarityMix); got[classKNN] != 6 || got[classExact] != 2 || got[classRange] != 2 {
		t.Errorf("similarity mix %v, want 60/20/20", got)
	}
	if got := count(plannedMix); got[classSelectRTree] != 4 || got[classSelectScan] != 1 || got[classComposed] != 1 || got[classApprox] != 4 {
		t.Errorf("planned mix %v, want 40/10/10/40", got)
	}
}

func TestFeedBatchesAreContiguous(t *testing.T) {
	batches, err := genFeedBatches(3, 20, feedFrames)
	if err != nil {
		t.Fatal(err)
	}
	next := map[string]int{}
	for i, b := range batches {
		if b.last-b.frames+1 != next[b.feed] {
			t.Fatalf("batch %d of %s starts at frame %d, want %d", i, b.feed, b.last-b.frames+1, next[b.feed])
		}
		next[b.feed] = b.last + 1
	}
}
