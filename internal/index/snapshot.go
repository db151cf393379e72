package index

import (
	"fmt"

	"strgindex/internal/dist"
	"strgindex/internal/graph"
)

// Snapshot is a serializable image of a Tree: exported, map-free types for
// encoding/gob. Restoring requires the same Config the tree was built with
// (metrics are functions and cannot be serialized); the restore verifies
// leaf keys against the configured metric and fails loudly on mismatch.
type Snapshot[P any] struct {
	Roots []RootSnapshot[P]
}

// RootSnapshot serializes one root record.
type RootSnapshot[P any] struct {
	ID int
	// HasBG distinguishes a nil background from an empty graph.
	HasBG    bool
	BG       graph.Snapshot
	Clusters []ClusterSnapshot[P]
}

// ClusterSnapshot serializes one cluster record with its leaf. Every
// record's samples are packed into one flat row-major float64 column
// block (record i owns ColLens[i] rows of ColDim floats in ColData) — one
// contiguous gob slice instead of len(leaf) nested slice-of-slices.
type ClusterSnapshot[P any] struct {
	ID       int
	Centroid dist.Sequence
	Keys     []float64
	ColData  []float64
	ColLens  []int
	ColDim   int
	Payloads []P
}

// Snapshot captures the tree's current state.
func (t *Tree[P]) Snapshot() Snapshot[P] {
	var s Snapshot[P]
	for _, r := range t.roots {
		rs := RootSnapshot[P]{ID: r.id}
		if r.bg != nil {
			rs.HasBG = true
			rs.BG = r.bg.Snapshot()
		}
		for _, cl := range r.clusters {
			cs := ClusterSnapshot[P]{ID: cl.id, Centroid: cl.centroid}
			for _, rec := range cl.leaf {
				cs.Keys = append(cs.Keys, rec.key)
				cs.Payloads = append(cs.Payloads, rec.payload)
				cs.ColLens = append(cs.ColLens, rec.col.Len())
				cs.ColData = append(cs.ColData, rec.col.Data()...)
				if rec.col.Dim() > 0 {
					cs.ColDim = rec.col.Dim()
				}
			}
			rs.Clusters = append(rs.Clusters, cs)
		}
		s.Roots = append(s.Roots, rs)
	}
	return s
}

// restoreRoot appends one serialized root to the tree, recomputing the
// derived per-record state (the cascade summary). The sharded restore
// partitions the snapshot's root sequence across shard trees with it.
func (t *Tree[P]) restoreRoot(rs RootSnapshot[P]) error {
	root := &rootRecord[P]{id: rs.ID}
	if rs.HasBG {
		bg, err := graph.FromSnapshot(rs.BG)
		if err != nil {
			return fmt.Errorf("index: restoring root %d: %w", rs.ID, err)
		}
		root.bg = bg
	}
	for _, cs := range rs.Clusters {
		if len(cs.Keys) != len(cs.ColLens) || len(cs.Keys) != len(cs.Payloads) {
			return fmt.Errorf("index: cluster %d snapshot length mismatch", cs.ID)
		}
		cl := &clusterRecord[P]{id: cs.ID, centroid: cs.Centroid}
		off := 0
		for i := range cs.Keys {
			// Materialize the record's column block; the sequence is a view
			// sharing the block's buffer.
			n := cs.ColLens[i]
			dim := cs.ColDim
			if n == 0 {
				dim = 0
			}
			end := off + n*dim
			if end > len(cs.ColData) {
				return fmt.Errorf("index: cluster %d column block truncated at record %d", cs.ID, i)
			}
			col, err := dist.BlockOf(cs.ColData[off:end:end], n, dim)
			if err != nil {
				return fmt.Errorf("index: cluster %d record %d: %w", cs.ID, i, err)
			}
			off = end
			seq := col.Sequence()
			// The cascade summary is derived state; recompute it rather
			// than trusting the snapshot.
			cl.leaf = append(cl.leaf, leafRecord[P]{
				key:     cs.Keys[i],
				seq:     seq,
				payload: cs.Payloads[i],
				sum:     t.cfg.Cascade.Summarize(seq),
				col:     col,
			})
			t.size++
		}
		if off != len(cs.ColData) {
			return fmt.Errorf("index: cluster %d column block has %d trailing floats", cs.ID, len(cs.ColData)-off)
		}
		if cs.ID >= t.nextCl {
			t.nextCl = cs.ID + 1
		}
		root.clusters = append(root.clusters, cl)
	}
	t.roots = append(t.roots, root)
	return nil
}
