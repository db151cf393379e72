package video

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ErrFrameOrder is the sentinel wrapped by every frame-numbering violation:
// out-of-order, duplicated, or gapped frame indices. Callers that stream
// frames (the feed API) branch on it with errors.Is to map the failure to a
// protocol-level error rather than a generic bad-request.
var ErrFrameOrder = errors.New("video: frame order violation")

// FrameOrderError reports a frame whose declared index does not match its
// position in the stream. Tracking links each frame to the one before it
// (a live feed's STRG.Add, frame by frame, and the journal replay that
// rebuilds it); accepting a non-monotone index would silently corrupt
// chain ordering on replay, so validation rejects it with the positions
// spelled out.
type FrameOrderError struct {
	Segment string // segment name, "" when validating a bare stream
	Index   int    // the frame's declared index
	Want    int    // the index its stream position requires
}

func (e *FrameOrderError) Error() string {
	where := "stream"
	if e.Segment != "" {
		where = "segment " + e.Segment
	}
	return fmt.Sprintf("video: %s frame at position %d has index %d: %v", where, e.Want, e.Index, ErrFrameOrder)
}

// Unwrap makes errors.Is(err, ErrFrameOrder) true.
func (e *FrameOrderError) Unwrap() error { return ErrFrameOrder }

// ReadJSON decodes a JSON-encoded Segment and validates it. It is the
// interchange path for real segmentation output: any external segmenter
// (EDISON, a neural model, ...) that can emit per-frame region lists can
// feed the pipeline.
func ReadJSON(r io.Reader) (*Segment, error) {
	var s Segment
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("video: decoding segment: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks structural invariants of a deserialized segment: frame
// indices must be consecutive from zero, region IDs unique per frame, and
// geometry inside the frame bounds.
func (s *Segment) Validate() error {
	if s.Width <= 0 || s.Height <= 0 {
		return fmt.Errorf("video: segment %s has non-positive dimensions %gx%g", s.Name, s.Width, s.Height)
	}
	if len(s.Frames) == 0 {
		return fmt.Errorf("video: segment %s has no frames", s.Name)
	}
	for i, f := range s.Frames {
		if f.Index != i {
			return &FrameOrderError{Segment: s.Name, Index: f.Index, Want: i}
		}
		if err := f.Validate(s.Width, s.Height); err != nil {
			return fmt.Errorf("video: segment %s frame %d: %w", s.Name, i, err)
		}
	}
	return nil
}

// Validate checks one frame's regions against the enclosing dimensions:
// region IDs unique, sizes positive, centroids inside the frame. Frame-index
// monotonicity is the caller's concern (Segment.Validate for whole segments,
// the feed's per-stream counter for live ingestion).
func (f *Frame) Validate(width, height float64) error {
	seen := make(map[int]bool, len(f.Regions))
	for _, r := range f.Regions {
		if seen[r.ID] {
			return fmt.Errorf("duplicate region ID %d", r.ID)
		}
		seen[r.ID] = true
		if r.Size <= 0 {
			return fmt.Errorf("region %d has size %g", r.ID, r.Size)
		}
		if r.Centroid.X < 0 || r.Centroid.X > width || r.Centroid.Y < 0 || r.Centroid.Y > height {
			return fmt.Errorf("region %d centroid %v outside %gx%g", r.ID, r.Centroid, width, height)
		}
	}
	return nil
}
