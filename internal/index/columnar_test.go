package index

import (
	"math"
	"math/rand"

	"bytes"
	"context"
	"encoding/gob"
	"strgindex/internal/dist"
	"testing"
)

// plainCascade hides the EGED_M cascade's BatchCascade and QuantCascade
// extensions behind the bare interface: a tree configured with it runs
// the same bounds through the per-pair DP kernel with no quantized tier —
// the reference the columnar execution layer must match in results AND
// SearchStats.
type plainCascade struct{ dist.Cascade }

func perPair(c *Config) { c.Cascade = plainCascade{dist.EGEDMCascade(nil)} }

// TestColumnarAfterChurn: inserts after construction (whose records carry
// codes from a grid fitted earlier, or none at all) and splits (which
// refit) keep the batched kernel and quantized tier byte-identical to the
// per-pair reference.
func TestColumnarAfterChurn(t *testing.T) {
	seqs := detSequences(60, 93)
	extra := detSequences(60, 94)
	queries := detSequences(6, 95)
	build := func(mut func(*Config)) *Tree[int] {
		tr := buildCascadeTree(t, seqs, 2, mut)
		for i, s := range extra {
			if err := tr.Insert(nil, s, 1000+i); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ref := build(perPair)
	tr := build(nil)
	for qi, q := range queries {
		sameResults(t, labelf("q=%d KNNExact", qi), tr.KNNExact(nil, q, 9), ref.KNNExact(nil, q, 9))
		sameResults(t, labelf("q=%d Range", qi), tr.Range(nil, q, 200), ref.Range(nil, q, 200))
	}
}

// TestColumnarSnapshotCrossRestore: the packed-columnar snapshot a tree
// writes and its nested-Seqs (v1-form) equivalent both restore, and both
// restores answer queries byte-identically to the source tree — through a
// gob round trip, as core persistence does.
func TestColumnarSnapshotCrossRestore(t *testing.T) {
	seqs := detSequences(80, 98)
	queries := detSequences(5, 99)
	cfg := Config{NumClusters: 5, Seed: 11, MaxLeafEntries: 16}
	tree := buildCascadeTree(t, seqs, 1, nil)

	packed := tree.Snapshot()
	// The writer no longer emits the nested form; derive it from the tree's
	// items, which enumerate in snapshot (root, cluster, key) order.
	nested := tree.Snapshot()
	items := tree.Items()
	for ri := range nested.Roots {
		for ci := range nested.Roots[ri].Clusters {
			cl := &nested.Roots[ri].Clusters[ci]
			if packed.Roots[ri].Clusters[ci].ColLens == nil {
				t.Fatal("tree did not emit the packed encoding")
			}
			cl.ColData, cl.ColLens, cl.ColDim = nil, nil, 0
			for range cl.Keys {
				cl.Seqs = append(cl.Seqs, items[0].Seq)
				items = items[1:]
			}
		}
	}

	for _, tc := range []struct {
		name string
		snap Snapshot[int]
	}{
		{"packed", packed},
		{"nested", nested},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&tc.snap); err != nil {
			t.Fatal(err)
		}
		var decoded Snapshot[int]
		if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
			t.Fatal(err)
		}
		restored, err := FromSnapshot(decoded, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if restored.Len() != tree.Len() {
			t.Fatalf("%s: Len = %d, want %d", tc.name, restored.Len(), tree.Len())
		}
		for qi, q := range queries {
			sameResults(t, labelf("%s q=%d", tc.name, qi),
				restored.KNNExact(nil, q, 6), tree.KNNExact(nil, q, 6))
			sameResults(t, labelf("%s q=%d range", tc.name, qi),
				restored.Range(nil, q, 150), tree.Range(nil, q, 150))
		}
	}
}

// TestColumnarSnapshotRejectsTruncatedBlock: a packed snapshot whose
// column block is shorter than its lengths claim is refused, not sliced
// out of range or silently zero-filled.
func TestColumnarSnapshotRejectsTruncatedBlock(t *testing.T) {
	tr := buildCascadeTree(t, detSequences(30, 100), 1, nil)
	snap := tr.Snapshot()
	cl := &snap.Roots[0].Clusters[0]
	cl.ColData = cl.ColData[:len(cl.ColData)-1]
	if _, err := FromSnapshot(snap, Config{NumClusters: 5, Seed: 11, MaxLeafEntries: 16}); err == nil {
		t.Fatal("truncated column block accepted")
	}
}

// ringSequences places tight trajectories on a circle: every sequence has
// (nearly) the same gap-sum, so the O(1) quick bound cannot separate them,
// but their envelopes are far apart along both axes — the workload where
// the envelope tier, and hence its quantized shadow, does the pruning.
func ringSequences(n int, seed int64) []dist.Sequence {
	rng := rand.New(rand.NewSource(seed))
	out := make([]dist.Sequence, n)
	for i := range out {
		ang := 2 * math.Pi * float64(i) / float64(n)
		cx, cy := 300*math.Cos(ang), 300*math.Sin(ang)
		s := make(dist.Sequence, 6)
		for j := range s {
			s[j] = dist.Vec{cx + rng.Float64()*4, cy + rng.Float64()*4}
		}
		out[i] = s
	}
	return out
}

// TestQuantTierFires: the tier must actually prune on an
// envelope-separable workload — the bit-identity tests would pass
// trivially if the tier never ran — and its firing must leave results and
// SearchStats identical to the per-pair reference (a quant prune is booked
// as the envelope prune it pre-empts).
func TestQuantTierFires(t *testing.T) {
	// One big leaf: leaf-level bounds cannot skip anything, so every far
	// record must die in the record-level cascade.
	oneLeaf := func(c *Config) { c.NumClusters = 1; c.MaxLeafEntries = 500 }
	seqs := ringSequences(120, 101)
	tr := buildCascadeTree(t, seqs, 1, oneLeaf)
	ref := buildCascadeTree(t, seqs, 1, func(c *Config) { oneLeaf(c); perPair(c) })
	queries := ringSequences(8, 102)
	before := QuantPruned()
	for qi, q := range queries {
		gotR, gotSt, err := tr.KNNExactStatsCtx(context.Background(), nil, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		wantR, wantSt, err := ref.KNNExactStatsCtx(context.Background(), nil, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, labelf("q=%d", qi), gotR, wantR)
		if gotSt != wantSt {
			t.Fatalf("q=%d: SearchStats differ with quant tier firing: %+v vs %+v", qi, gotSt, wantSt)
		}
		if gotSt.LBEnvelopePruned == 0 {
			t.Fatalf("q=%d: ring workload exercised no envelope pruning (%+v)", qi, gotSt)
		}
	}
	if d := QuantPruned() - before; d == 0 {
		t.Fatal("quantized tier pruned nothing across 8 ring queries")
	} else {
		t.Logf("quant tier pruned %d records", d)
	}
}
