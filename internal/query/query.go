// Package query provides a small predicate language over Object Graphs:
// the "various queries on moving objects" of the paper's motivation
// (which trajectories passed through this area, moved north, lingered,
// ...). Predicates compose with And/Or/Not and evaluate against the
// kinematics an OG carries — centroid trajectory, sizes, frame span.
package query

import (
	"math"

	"strgindex/internal/geom"
	"strgindex/internal/strg"
)

// Predicate is a boolean condition on one Object Graph.
type Predicate func(og *strg.OG) bool

// And is satisfied when every predicate is (vacuously true when empty).
func And(ps ...Predicate) Predicate {
	return func(og *strg.OG) bool {
		for _, p := range ps {
			if !p(og) {
				return false
			}
		}
		return true
	}
}

// Or is satisfied when any predicate is (vacuously false when empty).
func Or(ps ...Predicate) Predicate {
	return func(og *strg.OG) bool {
		for _, p := range ps {
			if p(og) {
				return true
			}
		}
		return false
	}
}

// Not negates a predicate.
func Not(p Predicate) Predicate {
	return func(og *strg.OG) bool { return !p(og) }
}

// PassesThrough is satisfied when any centroid sample lies inside r.
func PassesThrough(r geom.Rect) Predicate {
	return func(og *strg.OG) bool {
		for _, c := range og.Centroids {
			if r.Contains(c) {
				return true
			}
		}
		return false
	}
}

// StartsIn is satisfied when the first sample lies inside r.
func StartsIn(r geom.Rect) Predicate {
	return func(og *strg.OG) bool {
		return og.Len() > 0 && r.Contains(og.Centroids[0])
	}
}

// EndsIn is satisfied when the last sample lies inside r.
func EndsIn(r geom.Rect) Predicate {
	return func(og *strg.OG) bool {
		return og.Len() > 0 && r.Contains(og.Centroids[og.Len()-1])
	}
}

// WithinDuring is satisfied when some centroid sample lies inside r at a
// frame in [f0, f1] — the spatio-temporal window predicate ("crossed this
// region during this interval") the 3DR-tree answers natively.
func WithinDuring(r geom.Rect, f0, f1 int) Predicate {
	return func(og *strg.OG) bool {
		for i, c := range og.Centroids {
			if og.Frames[i] >= f0 && og.Frames[i] <= f1 && r.Contains(c) {
				return true
			}
		}
		return false
	}
}

// During is satisfied when the OG's frame span overlaps [f0, f1].
func During(f0, f1 int) Predicate {
	return func(og *strg.OG) bool {
		if og.Len() == 0 {
			return false
		}
		return og.StartFrame() <= f1 && f0 <= og.EndFrame()
	}
}

// LongerThan is satisfied when the OG spans more than n samples.
func LongerThan(n int) Predicate {
	return func(og *strg.OG) bool { return og.Len() > n }
}

// MeanSpeed returns the OG's mean per-frame speed in pixels.
func MeanSpeed(og *strg.OG) float64 {
	if og.Len() < 2 {
		return 0
	}
	var total float64
	for i := 1; i < og.Len(); i++ {
		dt := og.Frames[i] - og.Frames[i-1]
		if dt <= 0 {
			dt = 1
		}
		total += og.Centroids[i].Dist(og.Centroids[i-1]) / float64(dt)
	}
	return total / float64(og.Len()-1)
}

// MeanDirection returns the displacement-weighted circular mean of the
// OG's motion direction, in [0, 2π).
func MeanDirection(og *strg.OG) float64 {
	var sx, sy float64
	for i := 1; i < og.Len(); i++ {
		d := og.Centroids[i].Sub(og.Centroids[i-1])
		sx += d.DX
		sy += d.DY
	}
	return geom.Vec(sx, sy).Angle()
}

// SpeedBetween is satisfied when the mean speed lies in [lo, hi].
func SpeedBetween(lo, hi float64) Predicate {
	return func(og *strg.OG) bool {
		v := MeanSpeed(og)
		return v >= lo && v <= hi
	}
}

// DirectionalCoherence returns the mean resultant length R ∈ [0, 1] of the
// OG's step directions: 1 for a dead-straight path, near 0 when the steps
// cancel (a U-turn's net displacement is just its turn gap).
func DirectionalCoherence(og *strg.OG) float64 {
	var sx, sy, total float64
	for i := 1; i < og.Len(); i++ {
		d := og.Centroids[i].Sub(og.Centroids[i-1])
		sx += d.DX
		sy += d.DY
		total += d.Len()
	}
	if total == 0 {
		return 0
	}
	return geom.Vec(sx, sy).Len() / total
}

// headingCoherence is the minimum directional coherence at which an OG has
// a meaningful heading at all; below it (U-turns, wandering) Heading never
// matches.
const headingCoherence = 0.6

// Heading is satisfied when the OG moves coherently (see
// DirectionalCoherence) in a direction within tol radians of angle.
func Heading(angle, tol float64) Predicate {
	return func(og *strg.OG) bool {
		if og.Len() < 2 {
			return false
		}
		if DirectionalCoherence(og) < headingCoherence {
			return false
		}
		return geom.AngleDiff(MeanDirection(og), angle) <= tol
	}
}

// Eastbound, Westbound, Southbound and Northbound are Heading shorthands
// (screen coordinates: y grows downward).
func Eastbound(tol float64) Predicate  { return Heading(0, tol) }
func Southbound(tol float64) Predicate { return Heading(math.Pi/2, tol) }
func Westbound(tol float64) Predicate  { return Heading(math.Pi, tol) }
func Northbound(tol float64) Predicate { return Heading(3*math.Pi/2, tol) }

// TurnsBy is satisfied when the direction change between the OG's first
// and last thirds is at least minTurn radians — a U-turn detector at
// minTurn near π.
func TurnsBy(minTurn float64) Predicate {
	return func(og *strg.OG) bool {
		n := og.Len()
		if n < 6 {
			return false
		}
		third := n / 3
		first := segmentDirection(og, 0, third)
		last := segmentDirection(og, n-third, n-1)
		return geom.AngleDiff(first, last) >= minTurn
	}
}

func segmentDirection(og *strg.OG, from, to int) float64 {
	return og.Centroids[to].Sub(og.Centroids[from]).Angle()
}

// AreaBetween is satisfied when the OG's mean region area lies in
// [lo, hi] pixels.
func AreaBetween(lo, hi float64) Predicate {
	return func(og *strg.OG) bool {
		if og.Len() == 0 {
			return false
		}
		var total float64
		for _, s := range og.Sizes {
			total += s
		}
		mean := total / float64(og.Len())
		return mean >= lo && mean <= hi
	}
}
