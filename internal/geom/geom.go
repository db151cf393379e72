// Package geom provides the small amount of 2-D geometry the STRG pipeline
// needs: points, vectors, orientations, rectangles and sequence resampling.
//
// All angles are expressed in radians in the half-open interval [0, 2π).
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the frame plane. Video frames use pixel
// coordinates with the origin at the top-left corner, x growing right and
// y growing down, but nothing in this package depends on that convention.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by the vector v.
func (p Point) Add(v Vector) Point { return Point{p.X + v.DX, p.Y + v.DY} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector { return Vector{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Lerp linearly interpolates between p (t=0) and q (t=1).
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Vector is a displacement in the frame plane.
type Vector struct {
	DX, DY float64
}

// Vec is shorthand for Vector{dx, dy}.
func Vec(dx, dy float64) Vector { return Vector{DX: dx, DY: dy} }

// Len returns the Euclidean length of v.
func (v Vector) Len() float64 { return math.Hypot(v.DX, v.DY) }

// Scale returns v scaled by s.
func (v Vector) Scale(s float64) Vector { return Vector{v.DX * s, v.DY * s} }

// Add returns the component-wise sum of v and w.
func (v Vector) Add(w Vector) Vector { return Vector{v.DX + w.DX, v.DY + w.DY} }

// Angle returns the orientation of v in [0, 2π). The zero vector has
// orientation 0.
func (v Vector) Angle() float64 {
	if v.DX == 0 && v.DY == 0 {
		return 0
	}
	return NormalizeAngle(math.Atan2(v.DY, v.DX))
}

// NormalizeAngle maps an arbitrary angle in radians into [0, 2π).
func NormalizeAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// AngleDiff returns the absolute difference between two orientations,
// folded into [0, π]. It is the natural distance on the circle.
func AngleDiff(a, b float64) float64 {
	d := math.Abs(NormalizeAngle(a) - NormalizeAngle(b))
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// Orientation returns the orientation of the segment from p to q, in
// [0, 2π).
func Orientation(p, q Point) float64 { return q.Sub(p).Angle() }

// Rect is an axis-aligned rectangle. Min is the corner with the smallest
// coordinates and Max the corner with the largest; an empty rectangle has
// Min == Max.
type Rect struct {
	Min, Max Point
}

// Contains reports whether p lies inside r (borders inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns p moved to the closest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// ResamplePath resamples a polyline given by pts to exactly n points,
// uniformly spaced in arc length. It is used to compare and average
// trajectories of different lengths. It panics if pts is empty or n < 1.
// A single input point is replicated n times.
func ResamplePath(pts []Point, n int) []Point {
	if len(pts) == 0 {
		panic("geom: ResamplePath of empty path")
	}
	if n < 1 {
		panic("geom: ResamplePath to fewer than 1 point")
	}
	out := make([]Point, n)
	if len(pts) == 1 || n == 1 {
		for i := range out {
			out[i] = pts[0]
		}
		return out
	}
	// Cumulative arc length.
	cum := make([]float64, len(pts))
	for i := 1; i < len(pts); i++ {
		cum[i] = cum[i-1] + pts[i].Dist(pts[i-1])
	}
	total := cum[len(cum)-1]
	if total == 0 {
		for i := range out {
			out[i] = pts[0]
		}
		return out
	}
	seg := 0
	for i := 0; i < n; i++ {
		target := total * float64(i) / float64(n-1)
		for seg < len(pts)-2 && cum[seg+1] < target {
			seg++
		}
		span := cum[seg+1] - cum[seg]
		t := 0.0
		if span > 0 {
			t = (target - cum[seg]) / span
		}
		out[i] = pts[seg].Lerp(pts[seg+1], t)
	}
	return out
}
