package index

import (
	"math"
	"math/rand"

	"bytes"
	"encoding/gob"
	"strgindex/internal/dist"
	"testing"
)

// plainCascade hides the EGED_M cascade's BatchCascade extension behind
// the bare interface: a tree configured with it runs the same bounds
// through the per-pair DP kernel — the reference the columnar execution
// layer must match in results AND SearchStats.
type plainCascade struct{ dist.Cascade }

func perPair(c *Config) { c.Cascade = plainCascade{dist.EGEDMCascade(nil)} }

// TestColumnarAfterChurn: inserts after construction and the splits they
// trigger keep the batched kernel byte-identical to the per-pair
// reference.
func TestColumnarAfterChurn(t *testing.T) {
	seqs := detSequences(60, 93)
	extra := detSequences(60, 94)
	queries := detSequences(6, 95)
	build := func(mut func(*Config)) *Tree[int] {
		tr := buildCascadeTree(t, seqs, 2, mut)
		for i, s := range extra {
			if err := tr.AddSegment(nil, []Item[int]{{Seq: s, Payload: 1000 + i}}); err != nil {
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
// writes restores, and the restore answers queries byte-identically to the
// source tree — through a gob round trip, as core persistence does.
func TestColumnarSnapshotCrossRestore(t *testing.T) {
	seqs := detSequences(80, 98)
	queries := detSequences(5, 99)
	cfg := Config{NumClusters: 5, Seed: 11, MaxLeafEntries: 16}
	tree := buildCascadeTree(t, seqs, 1, nil)

	snap := tree.Snapshot()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot[int]
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	sh, err := NewShardedFromSnapshot(decoded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored := sh.View()
	if restored.Len() != tree.Len() {
		t.Fatalf("Len = %d, want %d", restored.Len(), tree.Len())
	}
	for qi, q := range queries {
		sameResults(t, labelf("q=%d", qi),
			restored.KNNExact(nil, q, 6), tree.KNNExact(nil, q, 6))
		sameResults(t, labelf("q=%d range", qi),
			restored.Range(nil, q, 150), tree.Range(nil, q, 150))
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
	if _, err := NewShardedFromSnapshot(snap, Config{NumClusters: 5, Seed: 11, MaxLeafEntries: 16}); err == nil {
		t.Fatal("truncated column block accepted")
	}
}

// ringSequences places tight trajectories on a circle: every sequence has
// (nearly) the same gap-sum, so the O(1) quick bound cannot separate them,
// but their envelopes are far apart along both axes — the workload where
// the envelope tier does the pruning.
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
