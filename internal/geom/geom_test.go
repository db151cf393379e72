package geom

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(1, 1), Pt(1, 1), 0},
		{"unit x", Pt(0, 0), Pt(1, 0), 1},
		{"unit y", Pt(0, 0), Pt(0, 1), 1},
		{"3-4-5", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-1, -1), Pt(2, 3), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEq(got, tt.want) {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestPointDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by int32) bool {
		a, b := Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by))
		return almostEq(a.Dist(b), b.Dist(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp 0 = %v, want %v", got, p)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp 1 = %v, want %v", got, q)
	}
	mid := p.Lerp(q, 0.5)
	if !almostEq(mid.X, 5) || !almostEq(mid.Y, 10) {
		t.Errorf("Lerp 0.5 = %v, want (5, 10)", mid)
	}
}

func TestVectorAngle(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		want float64
	}{
		{"east", Vec(1, 0), 0},
		{"north-ish (y down)", Vec(0, 1), math.Pi / 2},
		{"west", Vec(-1, 0), math.Pi},
		{"south-ish", Vec(0, -1), 3 * math.Pi / 2},
		{"zero", Vec(0, 0), 0},
		{"diagonal", Vec(1, 1), math.Pi / 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Angle(); !almostEq(got, tt.want) {
				t.Errorf("Angle(%v) = %v, want %v", tt.v, got, tt.want)
			}
		})
	}
}

func TestNormalizeAngle(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{0, 0},
		{2 * math.Pi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * math.Pi, math.Pi},
		{-4 * math.Pi, 0},
	}
	for _, tt := range tests {
		if got := NormalizeAngle(tt.in); !almostEq(got, tt.want) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestNormalizeAngleRange(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		got := NormalizeAngle(a)
		return got >= 0 && got < 2*math.Pi+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleDiff(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
		want float64
	}{
		{"identical", 1, 1, 0},
		{"quarter turn", 0, math.Pi / 2, math.Pi / 2},
		{"wrap around", 0.1, 2*math.Pi - 0.1, 0.2},
		{"opposite", 0, math.Pi, math.Pi},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := AngleDiff(tt.a, tt.b); !almostEq(got, tt.want) {
				t.Errorf("AngleDiff(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestAngleDiffSymmetricAndBounded(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		d1, d2 := AngleDiff(a, b), AngleDiff(b, a)
		return almostEq(d1, d2) && d1 >= 0 && d1 <= math.Pi+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(10, 10)}
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(5, 5), true},
		{Pt(0, 0), true},
		{Pt(10, 10), true},
		{Pt(-0.1, 5), false},
		{Pt(5, 10.1), false},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestRectClamp(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(10, 10)}
	tests := []struct {
		in, want Point
	}{
		{Pt(5, 5), Pt(5, 5)},
		{Pt(-3, 5), Pt(0, 5)},
		{Pt(12, 15), Pt(10, 10)},
	}
	for _, tt := range tests {
		if got := r.Clamp(tt.in); got != tt.want {
			t.Errorf("Clamp(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestResamplePath(t *testing.T) {
	path := []Point{Pt(0, 0), Pt(10, 0)}
	got := ResamplePath(path, 5)
	if len(got) != 5 {
		t.Fatalf("len = %d, want 5", len(got))
	}
	for i, p := range got {
		want := Pt(float64(i)*2.5, 0)
		if !almostEq(p.X, want.X) || !almostEq(p.Y, want.Y) {
			t.Errorf("point %d = %v, want %v", i, p, want)
		}
	}
}

func TestResamplePathEndpointsPreserved(t *testing.T) {
	path := []Point{Pt(0, 0), Pt(3, 4), Pt(10, -2), Pt(11, 0)}
	for _, n := range []int{2, 3, 7, 50} {
		got := ResamplePath(path, n)
		if got[0] != path[0] {
			t.Errorf("n=%d: first point %v, want %v", n, got[0], path[0])
		}
		last := got[len(got)-1]
		if !almostEq(last.X, 11) || !almostEq(last.Y, 0) {
			t.Errorf("n=%d: last point %v, want (11,0)", n, last)
		}
	}
}

func TestResamplePathSinglePoint(t *testing.T) {
	got := ResamplePath([]Point{Pt(3, 3)}, 4)
	for _, p := range got {
		if p != Pt(3, 3) {
			t.Errorf("resampled single point = %v, want (3,3)", p)
		}
	}
}

func TestResamplePathZeroLength(t *testing.T) {
	got := ResamplePath([]Point{Pt(1, 2), Pt(1, 2), Pt(1, 2)}, 3)
	for _, p := range got {
		if p != Pt(1, 2) {
			t.Errorf("resampled zero-length path = %v, want (1,2)", p)
		}
	}
}

func TestOrientation(t *testing.T) {
	if got := Orientation(Pt(0, 0), Pt(1, 1)); !almostEq(got, math.Pi/4) {
		t.Errorf("Orientation = %v, want pi/4", got)
	}
}

func TestVectorOps(t *testing.T) {
	v := Vec(3, 4)
	if got := v.Len(); !almostEq(got, 5) {
		t.Errorf("Len = %v, want 5", got)
	}
	if got := v.Scale(2); got != Vec(6, 8) {
		t.Errorf("Scale = %v, want (6,8)", got)
	}
	if got := v.Add(Vec(1, -1)); got != Vec(4, 3) {
		t.Errorf("Add = %v, want (4,3)", got)
	}
}
