package feed

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"regexp"

	"strgindex/internal/video"
)

// The feed journal is a wal.Chain, one directory per feed:
// <dir>/<feed-id>/journal-%08d.log. A journal a rotation starts is headed
// by a meta record — the checkpoint of an epoch boundary: the feed's
// identity, epoch and cursor, which is all of its state there because
// each epoch's STRG starts empty — and then holds one frames record per
// accepted batch (one fsync per request). Replaying the frames records
// rebuilds the open epoch's STRG. An epoch flush appends an intent
// record, commits the epoch's STRG through the database, and rotates to a
// journal headed by the post-flush checkpoint. The one fact recovery
// needs beyond the chain's rule is where the newest checkpoint is: the
// highest journal whose first record is a meta record. DESIGN §10 ("Log
// chains") states the rule, the crash windows and what a damaged journal
// does. Checkpoints written before epochs restarted their tracker also
// carry a Builder field; gob skips it, and nothing else about them
// differs.
const (
	journalPrefix = "journal"

	recMeta   = int8(1)
	recFrames = int8(2)
	recIntent = int8(3)
)

// feedIDPattern is the set of feed IDs accepted: they name directories and
// appear in URLs, so they stay conservative.
var feedIDPattern = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

// ValidID reports whether id is an acceptable feed identifier.
func ValidID(id string) bool { return feedIDPattern.MatchString(id) }

// Meta is a feed's fixed identity: the frame geometry every batch is
// validated against and every committed segment carries.
type Meta struct {
	Width  float64 `json:"width"`
	Height float64 `json:"height"`
	FPS    float64 `json:"fps"`
}

func (m Meta) validate() error {
	if m.Width <= 0 || m.Height <= 0 {
		return fmt.Errorf("feed: non-positive frame dimensions %gx%g", m.Width, m.Height)
	}
	if m.FPS <= 0 {
		return fmt.Errorf("feed: non-positive FPS %g", m.FPS)
	}
	return nil
}

// metaRec is the checkpoint heading every journal file: everything needed
// to resume the feed exactly at the epoch boundary the file starts at.
// Frames records replayed on top of it rebuild the open epoch.
type metaRec struct {
	ID   string
	Meta Meta
	// Epoch is the next epoch to commit; NextFrame the next expected
	// feed-global frame index.
	Epoch     int
	NextFrame int
}

// journalRec is the single gob-framed record shape; Kind selects which
// fields are meaningful.
type journalRec struct {
	Kind   int8
	Meta   *metaRec      // recMeta
	Frames []video.Frame // recFrames
	Epoch  int           // recIntent: the epoch about to commit
}

func encodeRec(rec journalRec) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
		return nil, fmt.Errorf("feed: encoding journal record: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeRec(payload []byte) (journalRec, error) {
	var rec journalRec
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return rec, fmt.Errorf("feed: decoding journal record: %w", err)
	}
	return rec, nil
}
