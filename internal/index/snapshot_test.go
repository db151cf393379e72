package index

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	tr := New[int](Config{Seed: 1, NumClusters: 3})
	items, _ := patternItems(10, 3, 20)
	if err := tr.AddSegment(bgGraph(0.3), items); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()

	// Gob round trip, as core persistence uses it.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot[int]
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	sh, err := NewShardedFromSnapshot(decoded, Config{Seed: 1, NumClusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	restored := sh.View()
	if restored.Len() != tr.Len() {
		t.Fatalf("Len = %d, want %d", restored.Len(), tr.Len())
	}
	if len(restored.roots) != len(tr.roots) || restored.NumClusters() != tr.NumClusters() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			len(restored.roots), restored.NumClusters(), len(tr.roots), tr.NumClusters())
	}
	// Identical query results.
	q := trajectory(0, 52, 300, 48, 10)
	a := tr.KNNExact(nil, q, 5)
	b := restored.KNNExact(nil, q, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("result %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFromSnapshotRejectsCorruptKeys(t *testing.T) {
	tr := New[int](Config{Seed: 1, NumClusters: 2})
	items, _ := patternItems(5, 3, 21)
	if err := tr.AddSegment(nil, items); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	snap.Roots[0].Clusters[0].Keys[0] += 100 // corrupt a key
	if _, err := NewShardedFromSnapshot(snap, Config{}); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

func TestFromSnapshotRejectsLengthMismatch(t *testing.T) {
	tr := New[int](Config{Seed: 1, NumClusters: 2})
	items, _ := patternItems(5, 3, 22)
	if err := tr.AddSegment(nil, items); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	snap.Roots[0].Clusters[0].Payloads = snap.Roots[0].Clusters[0].Payloads[:1]
	if _, err := NewShardedFromSnapshot(snap, Config{}); err == nil {
		t.Error("length-mismatched snapshot accepted")
	}
}
