// Package video provides the video substrate for the STRG pipeline.
//
// The paper runs EDISON (mean-shift) color segmentation over real camera
// streams and feeds the resulting region lists into RAG construction. This
// package substitutes that front end with a synthetic scene generator that
// emits segmented frames directly: a static, jittered background region grid
// plus moving objects composed of several regions each. Everything
// downstream of segmentation (RAG, tracking, STRG, decomposition, indexing)
// consumes only region lists, so the substitution exercises the identical
// code paths while keeping the repository self-contained. The jitter and
// deliberate object over-splitting reproduce the segmentation instabilities
// (region split/merge, illumination drift) the tracker and the OG-merging
// step were designed to survive.
package video

import (
	"fmt"
	"math"
	"math/rand"

	"strgindex/internal/geom"
	"strgindex/internal/graph"
)

// Region is one segmented homogeneous color region of a frame: the unit the
// whole pipeline is built on. Label carries the generating object's identity
// ("" for background); it is ground truth for evaluation and is never used
// by matching or indexing.
type Region struct {
	ID       int
	Centroid geom.Point
	Size     float64 // area in pixels
	Color    graph.Color
	Label    string
}

// Frame is one segmented video frame.
type Frame struct {
	Index   int
	Regions []Region
}

// Segment is a contiguous run of frames sharing one background — the unit
// of STRG construction (Definition 2 is defined over "a video segment S").
type Segment struct {
	Name   string
	Width  float64
	Height float64
	FPS    float64
	Frames []Frame
}

// ClipRef identifies a clip of video on "disk" — the payload the index's
// leaf records point at.
type ClipRef struct {
	Stream     string
	Segment    string
	FrameStart int
	FrameEnd   int
}

// String implements fmt.Stringer.
func (c ClipRef) String() string {
	return fmt.Sprintf("%s/%s[%d:%d]", c.Stream, c.Segment, c.FrameStart, c.FrameEnd)
}

// PartSpec is one region of a composite object, positioned relative to the
// object's trajectory point. Real segmentation splits a single object
// (e.g. a person) into several color regions; objects here do the same so
// the ORG-merging step has real work to do.
type PartSpec struct {
	Offset geom.Vector
	Size   float64
	Color  graph.Color
}

// ObjectSpec describes one moving object in a scene.
type ObjectSpec struct {
	Label string
	Parts []PartSpec
	// Path is the trajectory waypoint polyline; the object's anchor point
	// moves along it with uniform arc-length speed.
	Path []geom.Point
	// Start and End delimit the active frame range [Start, End).
	Start, End int
}

// SceneConfig configures the synthetic scene generator.
type SceneConfig struct {
	Name   string
	Width  float64
	Height float64
	FPS    float64
	Frames int
	// BackgroundRows x BackgroundCols static regions tile the frame.
	BackgroundRows int
	BackgroundCols int
	// Jitter is the magnitude of the per-frame segmentation noise:
	// centroid displacement in pixels; size and color wobble scale with it.
	Jitter float64
	// BackgroundShade offsets the background palette; scenes with
	// different shades read as different locations (used to exercise shot
	// boundary detection).
	BackgroundShade float64
	// Occlusion drops an object region when a larger object region covers
	// its centroid — what a real segmenter does when one object passes in
	// front of another. Exercises the tracker's gap bridging.
	Occlusion bool
	Seed      int64
	Objects   []ObjectSpec
}

// Validate checks the configuration for obvious mistakes.
func (c *SceneConfig) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("video: non-positive frame dimensions %gx%g", c.Width, c.Height)
	}
	if c.Frames <= 0 {
		return fmt.Errorf("video: non-positive frame count %d", c.Frames)
	}
	if c.BackgroundRows < 0 || c.BackgroundCols < 0 {
		return fmt.Errorf("video: negative background grid %dx%d", c.BackgroundRows, c.BackgroundCols)
	}
	for i, o := range c.Objects {
		if len(o.Parts) == 0 {
			return fmt.Errorf("video: object %d (%q) has no parts", i, o.Label)
		}
		if len(o.Path) == 0 {
			return fmt.Errorf("video: object %d (%q) has no path", i, o.Label)
		}
		if o.Start < 0 || o.End > c.Frames || o.Start >= o.End {
			return fmt.Errorf("video: object %d (%q) active range [%d, %d) outside frames [0, %d)",
				i, o.Label, o.Start, o.End, c.Frames)
		}
	}
	return nil
}

// Generate renders the scene into a Segment. Generation is deterministic
// for a given configuration (including Seed).
func Generate(cfg SceneConfig) (*Segment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	seg := &Segment{
		Name:   cfg.Name,
		Width:  cfg.Width,
		Height: cfg.Height,
		FPS:    cfg.FPS,
		Frames: make([]Frame, cfg.Frames),
	}
	bg := backgroundRegions(cfg)
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(cfg.Width, cfg.Height)}

	// Precompute per-object resampled trajectories, one anchor point per
	// active frame.
	anchors := make([][]geom.Point, len(cfg.Objects))
	for i, o := range cfg.Objects {
		anchors[i] = geom.ResamplePath(o.Path, o.End-o.Start)
	}

	for f := 0; f < cfg.Frames; f++ {
		frame := Frame{Index: f}
		nextID := 0
		emit := func(r Region) {
			r.ID = nextID
			nextID++
			frame.Regions = append(frame.Regions, r)
		}
		for _, r := range bg {
			emit(jitterRegion(r, cfg.Jitter, rng, bounds))
		}
		var objectRegions []Region
		for i, o := range cfg.Objects {
			if f < o.Start || f >= o.End {
				continue
			}
			anchor := anchors[i][f-o.Start]
			for _, p := range o.Parts {
				r := Region{
					Centroid: bounds.Clamp(anchor.Add(p.Offset)),
					Size:     p.Size,
					Color:    p.Color,
					Label:    o.Label,
				}
				objectRegions = append(objectRegions, jitterRegion(r, cfg.Jitter, rng, bounds))
			}
		}
		if cfg.Occlusion {
			objectRegions = applyOcclusion(objectRegions)
		}
		for _, r := range objectRegions {
			emit(r)
		}
		seg.Frames[f] = frame
	}
	return seg, nil
}

// backgroundRegions lays out the static background grid.
func backgroundRegions(cfg SceneConfig) []Region {
	if cfg.BackgroundRows == 0 || cfg.BackgroundCols == 0 {
		return nil
	}
	cellW := cfg.Width / float64(cfg.BackgroundCols)
	cellH := cfg.Height / float64(cfg.BackgroundRows)
	var out []Region
	for r := 0; r < cfg.BackgroundRows; r++ {
		for c := 0; c < cfg.BackgroundCols; c++ {
			// Deterministic muted color per cell so background regions are
			// distinguishable from each other and from objects.
			shade := 0.35 + cfg.BackgroundShade + 0.4*float64((r*cfg.BackgroundCols+c)%5)/5
			shade = clamp01(shade)
			out = append(out, Region{
				Centroid: geom.Pt((float64(c)+0.5)*cellW, (float64(r)+0.5)*cellH),
				Size:     cellW * cellH,
				Color:    graph.Color{R: shade, G: shade, B: shade * 0.9},
				Label:    "",
			})
		}
	}
	return out
}

// applyOcclusion removes object regions whose centroid falls inside a
// larger region of a different object — the smaller region is hidden
// behind the larger one and the segmenter never sees it.
func applyOcclusion(regions []Region) []Region {
	out := regions[:0]
	for i, r := range regions {
		hidden := false
		for j, other := range regions {
			if i == j || other.Label == r.Label || other.Size <= r.Size {
				continue
			}
			radius := math.Sqrt(other.Size / math.Pi)
			if r.Centroid.Dist(other.Centroid) < radius {
				hidden = true
				break
			}
		}
		if !hidden {
			out = append(out, r)
		}
	}
	return out
}

// jitterRegion applies per-frame segmentation noise to a region.
func jitterRegion(r Region, jitter float64, rng *rand.Rand, bounds geom.Rect) Region {
	if jitter <= 0 {
		return r
	}
	r.Centroid = bounds.Clamp(geom.Pt(
		r.Centroid.X+rng.NormFloat64()*jitter,
		r.Centroid.Y+rng.NormFloat64()*jitter,
	))
	r.Size *= 1 + rng.NormFloat64()*jitter*0.01
	if r.Size < 1 {
		r.Size = 1
	}
	wobble := rng.NormFloat64() * jitter * 0.004
	r.Color = graph.Color{
		R: clamp01(r.Color.R + wobble),
		G: clamp01(r.Color.G + wobble),
		B: clamp01(r.Color.B + wobble),
	}
	return r
}

// Concat joins segments into one continuous segment (frame indices are
// renumbered), as a camera recording across scene changes would produce.
// All inputs must share dimensions and FPS.
func Concat(name string, segs ...*Segment) (*Segment, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("video: Concat of no segments")
	}
	out := &Segment{
		Name:   name,
		Width:  segs[0].Width,
		Height: segs[0].Height,
		FPS:    segs[0].FPS,
	}
	for _, s := range segs {
		if s.Width != out.Width || s.Height != out.Height || s.FPS != out.FPS {
			return nil, fmt.Errorf("video: Concat dimension/FPS mismatch in %s", s.Name)
		}
		for _, f := range s.Frames {
			f.Index = len(out.Frames)
			out.Frames = append(out.Frames, f)
		}
	}
	return out, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
