package wal

import (
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"strgindex/internal/faultfs"
)

// Chain is a run of sequence-numbered logs, <dir>/<prefix>-%08d.log, the
// highest open for appending. It is the one place that knows log file
// names, and it holds the one recovery rule (Recover). Its owner knows
// only where its newest checkpoint is: outside the chain (the core's
// snapshot) or as the head record of a log inside it (a feed journal).
//
// Seq, Log, End and Rotate are guarded by the owner's lock; the other
// methods touch no mutable state and may run beside them.
type Chain struct {
	fsys        faultfs.FS
	dir, prefix string
	seq         uint64 // the open log; 0 until Recover or the first Rotate
	log         *Log
}

// NewChain returns the chain of <prefix>-*.log files in dir, not yet
// open: Recover opens it, or a first Rotate starts it.
func NewChain(fsys faultfs.FS, dir, prefix string) *Chain {
	return &Chain{fsys: fsys, dir: dir, prefix: prefix}
}

func (c *Chain) name(seq uint64) string { return fmt.Sprintf("%s-%08d.log", c.prefix, seq) }

// parse extracts the sequence from one of this chain's log names.
func (c *Chain) parse(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, c.prefix+"-")
	digits, ok2 := strings.CutSuffix(digits, ".log")
	seq, err := strconv.ParseUint(digits, 10, 64)
	return seq, ok && ok2 && err == nil && name == c.name(seq)
}

// Path returns the file path of log seq.
func (c *Chain) Path(seq uint64) string { return filepath.Join(c.dir, c.name(seq)) }

// Seq returns the sequence number of the open log.
func (c *Chain) Seq() uint64 { return c.seq }

// Log returns the open log.
func (c *Chain) Log() *Log { return c.log }

// End returns the committed end of the chain.
func (c *Chain) End() Pos { return Pos{Seq: c.seq, Off: c.log.Size()} }

// List returns the sequence numbers of the logs on disk, ascending.
func (c *Chain) List() ([]uint64, error) {
	entries, err := c.fsys.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := c.parse(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs, nil
}

// Head returns the first intact record of log seq, or nil when the log
// holds none (empty, or torn before its first record ended). Corruption
// in that record is an error, as in Scan.
func (c *Chain) Head(seq uint64) (head []byte, err error) {
	_, err = Scan(c.fsys, c.Path(seq), func(_ int64, payload []byte) error {
		head = payload // Scan's buffer is the file's, read afresh
		return ErrStopScan
	})
	return head, err
}

// Replay counts the logs and records Recover replayed; Torn reports that
// the last log ended torn and was truncated.
type Replay struct {
	Logs, Records int
	Torn          bool
}

// Recover applies the one recovery rule. start is the first log the
// owner's newest checkpoint does not cover. Every log below it is
// removed; a removal that fails leaves a covered log, which the next
// Recover or Prune removes. The logs from start on must be contiguous,
// and apply sees their records in order. Only the last may end torn:
// every earlier one was sealed by a completed rotation. The last is
// reopened for appending at its committed size; with no log at or above
// start, log start is created. A gap, a torn log that is not the last
// and a corrupt record fail with an error matching ErrCorrupt; an apply
// error aborts.
func (c *Chain) Recover(start uint64, apply func(seq uint64, off int64, payload []byte) error) (Replay, error) {
	var rep Replay
	seqs, err := c.List()
	if err != nil {
		return rep, err
	}
	seqs, _ = c.removeBelow(seqs, start)
	committed := int64(0)
	for i, seq := range seqs {
		if want := start + uint64(i); seq != want {
			return rep, fmt.Errorf("wal: write-ahead log chain has a gap: found %s, want %s: %w",
				c.name(seq), c.name(want), ErrCorrupt)
		}
		res, err := Scan(c.fsys, c.Path(seq), func(off int64, payload []byte) error {
			return apply(seq, off, payload)
		})
		if err != nil {
			return rep, err
		}
		if res.Torn && i != len(seqs)-1 {
			return rep, &CorruptError{Path: c.Path(seq), Offset: res.CommittedSize, Reason: "torn, but not the last log"}
		}
		rep.Logs, rep.Records, rep.Torn = rep.Logs+1, rep.Records+res.Records, res.Torn
		committed = res.CommittedSize
	}
	if len(seqs) == 0 {
		c.seq = start
		c.log, err = Create(c.fsys, c.Path(start))
	} else {
		c.seq = seqs[len(seqs)-1]
		c.log, err = OpenAppend(c.fsys, c.Path(c.seq), committed)
	}
	return rep, err
}

// Rotate creates log seq+1, appends head to it when head is non-nil,
// and switches appends to it. It returns the sealed log for the caller
// to close (nil on a chain's first Rotate). On failure appends stay on
// the current log and the partial next log is removed, best effort; one
// that survives a crash replays as an empty or torn tail.
func (c *Chain) Rotate(head []byte) (*Log, error) {
	next := c.Path(c.seq + 1)
	l, err := Create(c.fsys, next)
	if err == nil && head != nil {
		if err = l.Append(head); err != nil {
			l.Close()
		}
	}
	if err != nil {
		_ = c.fsys.Remove(next)
		return nil, err
	}
	sealed := c.log
	c.seq, c.log = c.seq+1, l
	return sealed, nil
}

// Prune removes every log below bound: the first log the owner's newest
// durable checkpoint does not cover, lowered for any log a reader still
// needs. It attempts every removal and returns the first failure.
func (c *Chain) Prune(bound uint64) error {
	seqs, err := c.List()
	if err != nil {
		return err
	}
	_, err = c.removeBelow(seqs, bound)
	return err
}

// removeBelow removes the listed logs below bound; the rest remain.
func (c *Chain) removeBelow(seqs []uint64, bound uint64) ([]uint64, error) {
	var err error
	for ; len(seqs) > 0 && seqs[0] < bound; seqs = seqs[1:] {
		if rerr := c.fsys.Remove(c.Path(seqs[0])); rerr != nil && err == nil {
			err = rerr
		}
	}
	return seqs, err
}

// Read hands fn each committed record from from up to end, a committed
// end the caller captured, crossing into the next log when a sealed one
// is exhausted; next is the position after the record. The payload is
// valid only during the call. Reading stops at end, or at the first
// record once fn has had maxBytes of payload, and returns where it
// stopped. A log that is gone fails matching os.ErrNotExist; a corrupt
// record, or a sealed log that ends torn, matching ErrCorrupt.
func (c *Chain) Read(from, end Pos, maxBytes int64, fn func(payload []byte, next Pos)) (Pos, error) {
	pos, total, records := from, int64(0), 0
	for {
		limit := int64(-1)
		if pos.Seq == end.Seq {
			limit = end.Off
		}
		res, err := ScanRange(c.fsys, c.Path(pos.Seq), pos.Off, limit, func(off int64, payload []byte) error {
			if total >= maxBytes && records > 0 {
				return ErrStopScan
			}
			total, records = total+int64(len(payload)), records+1
			fn(payload, Pos{Seq: pos.Seq, Off: off + FrameOverhead + int64(len(payload))})
			return nil
		})
		if err != nil {
			return pos, err
		}
		if res.Torn && pos.Seq < end.Seq {
			return pos, &CorruptError{Path: c.Path(pos.Seq), Offset: res.CommittedSize, Reason: "sealed log is torn"}
		}
		pos.Off = res.CommittedSize
		if res.Stopped || total >= maxBytes || pos.Seq >= end.Seq {
			return pos, nil
		}
		pos = Pos{Seq: pos.Seq + 1, Off: HeaderSize}
	}
}

// Between returns the committed bytes from from to end, framing
// included: the lag of a reader at from. Logs gone from disk count zero.
func (c *Chain) Between(from, end Pos) int64 {
	var total int64
	for seq := from.Seq; from.Before(end) && seq <= end.Seq; seq++ {
		size := end.Off
		if seq != end.Seq {
			fi, err := c.fsys.Stat(c.Path(seq))
			if err != nil {
				continue
			}
			size = fi.Size()
		}
		start := int64(HeaderSize)
		if seq == from.Seq {
			start = from.Off
		}
		total += max(size-start, 0)
	}
	return total
}

// Pos addresses a record boundary in a chain: a log's sequence number
// and a byte offset in it (HeaderSize, or the end of a record's frame).
type Pos struct {
	Seq uint64 `json:"seq"`
	Off int64  `json:"off"`
}

// IsZero reports the zero position (no position recorded).
func (p Pos) IsZero() bool { return p.Seq == 0 && p.Off == 0 }

// Before orders positions: first by log sequence, then by offset.
func (p Pos) Before(q Pos) bool {
	if p.Seq != q.Seq {
		return p.Seq < q.Seq
	}
	return p.Off < q.Off
}

// String formats the position for logs.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Seq, p.Off) }
