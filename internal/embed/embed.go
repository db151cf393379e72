// Package embed maps Object Graph trajectories to fixed-dimension
// float32 feature vectors and indexes them with an IVF-flat coarse
// quantizer — the approximate candidate-generation tier in front of the
// exact EGED_M cascade.
//
// The embedding is a pure, deterministic function of the trajectory
// signal: no randomness, no training, no dependence on worker counts
// or ingest batching. Two processes that ingest the same
// OGs in the same order hold bit-identical vectors, which is what makes
// the tier's snapshots optional — a vector index can always be rebuilt
// from the retained OGs and come out identical.
//
// Nothing in this package is admissible with respect to EGED_M: vector
// distance is a heuristic proxy used only to choose candidates. Every
// answer the tier returns is reranked by the exact cascade, so answers
// are always true distances — only completeness (recall) is traded.
package embed

import (
	"math"

	"strgindex/internal/dist"
)

// Dim is the embedding dimension. The budget is deliberately small: the
// IVF centroid scan is O(NLists·Dim) per query and list assignment is
// O(NLists·Dim) per ingested OG, so every extra dimension is paid at
// both ends of the pipeline.
const Dim = 20

// shapePoints is how many resampled waypoints the embedding keeps; they
// occupy the first 2·shapePoints dimensions.
const shapePoints = 6

// headingBins is the number of direction-histogram bins (quadrants).
const headingBins = 4

// Embed computes the Dim-dimensional feature vector of one trajectory:
//
//	[ 0..11]  the path resampled to 6 waypoints (x, y interleaved) —
//	          coarse shape and absolute position;
//	[12..15]  heading histogram: total step length moved in each of the
//	          four direction quadrants — turn structure that survives
//	          positional noise;
//	[16]      total path length;
//	[17]      net start→end displacement (separates U-turns from lines
//	          of the same length);
//	[18..19]  per-axis standard deviation — spatial extent.
//
// All accumulation runs in float64 in index order and is truncated to
// float32 once at the end, so the result is deterministic everywhere.
// An empty trajectory embeds to the zero vector.
func Embed(s dist.Sequence) []float32 {
	v := make([]float32, Dim)
	if len(s) == 0 {
		return v
	}
	rs := dist.Resample(s, shapePoints)
	for i, p := range rs {
		v[2*i] = float32(p[0])
		v[2*i+1] = float32(p[1])
	}

	var hist [headingBins]float64
	var total float64
	for i := 1; i < len(s); i++ {
		dx := s[i][0] - s[i-1][0]
		dy := s[i][1] - s[i-1][1]
		step := math.Sqrt(dx*dx + dy*dy)
		if step == 0 {
			continue
		}
		total += step
		// Quadrant of the step direction; the bin boundaries are the
		// diagonals so that axis-aligned motion lands mid-bin.
		ang := math.Atan2(dy, dx) // (-π, π]
		bin := int(math.Floor((ang + math.Pi + math.Pi/4) / (math.Pi / 2)))
		hist[bin%headingBins] += step
	}
	off := 2 * shapePoints
	for i, h := range hist {
		v[off+i] = float32(h)
	}
	v[off+headingBins] = float32(total)

	dx := s[len(s)-1][0] - s[0][0]
	dy := s[len(s)-1][1] - s[0][1]
	v[off+headingBins+1] = float32(math.Sqrt(dx*dx + dy*dy))

	var mx, my float64
	for _, p := range s {
		mx += p[0]
		my += p[1]
	}
	n := float64(len(s))
	mx /= n
	my /= n
	var sx, sy float64
	for _, p := range s {
		sx += (p[0] - mx) * (p[0] - mx)
		sy += (p[1] - my) * (p[1] - my)
	}
	v[off+headingBins+2] = float32(math.Sqrt(sx / n))
	v[off+headingBins+3] = float32(math.Sqrt(sy / n))
	return v
}

// l2sq is the squared Euclidean distance between two Dim-length vectors,
// unrolled 4-wide over the contiguous float32 storage (the scan kernel
// of both the centroid ranking and k-means training).
func l2sq(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}
