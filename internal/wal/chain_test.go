package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"strgindex/internal/faultfs"
)

// TestChainNames: the chain alone formats and parses log file names, for
// the core's "wal" prefix and the feed journals' "journal" prefix alike,
// and lists them in numeric order past eight digits.
func TestChainNames(t *testing.T) {
	for _, prefix := range []string{"wal", "journal"} {
		c := NewChain(faultfs.OS{}, t.TempDir(), prefix)
		if got, want := filepath.Base(c.Path(7)), prefix+"-00000007.log"; got != want {
			t.Errorf("Path(7) = %q, want %q", got, want)
		}
		for name, want := range map[string]uint64{
			prefix + "-00000001.log":  1,
			prefix + "-12345678.log":  12345678,
			prefix + "-123456789.log": 123456789,
		} {
			if seq, ok := c.parse(name); !ok || seq != want {
				t.Errorf("parse(%q) = %d, %v", name, seq, ok)
			}
		}
		other := map[string]string{"wal": "journal", "journal": "wal"}[prefix]
		for _, name := range []string{"snapshot.strg", prefix + "-1.log", prefix + "-00000001.log.tmp",
			prefix + "-xxxxxxxx.log", prefix + "-+0000001.log", prefix + "00000001.log", other + "-00000001.log"} {
			if _, ok := c.parse(name); ok {
				t.Errorf("parse(%q) accepted", name)
			}
		}
		for _, seq := range []uint64{100000000, 99999999, 3} {
			writeLog(t, c.Path(seq), nil)
		}
		writeLog(t, filepath.Join(c.dir, other+"-00000002.log"), nil)
		if seqs, err := c.List(); err != nil || !slices.Equal(seqs, []uint64{3, 99999999, 100000000}) {
			t.Errorf("List = %v, %v", seqs, err)
		}
	}
}

// collect returns a Recover apply func appending copies of the records it
// sees, except the head record of log skip (0 skips none).
func collect(got *[][]byte, skip uint64) func(uint64, int64, []byte) error {
	return func(seq uint64, off int64, p []byte) error {
		if seq != skip || off != HeaderSize {
			*got = append(*got, bytes.Clone(p))
		}
		return nil
	}
}

// TestChainRecoverRule: logs below start go, a gap or a torn log that is
// not the last is refused as corruption, and the last log's tear is
// truncated before appends resume.
func TestChainRecoverRule(t *testing.T) {
	payloads := testPayloads(6)
	dir := t.TempDir()
	c := NewChain(faultfs.OS{}, dir, "wal")
	for seq := uint64(1); seq <= 3; seq++ {
		writeLog(t, c.Path(seq), payloads[2*seq-2:2*seq])
	}

	var got [][]byte
	rep, err := c.Recover(2, collect(&got, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep != (Replay{Logs: 2, Records: 4}) || len(got) != 4 || !bytes.Equal(got[0], payloads[2]) {
		t.Fatalf("Recover(2) = %+v with %d records", rep, len(got))
	}
	if seqs, _ := c.List(); !slices.Equal(seqs, []uint64{2, 3}) || c.Seq() != 3 {
		t.Fatalf("after Recover(2): logs %v, open %d", seqs, c.Seq())
	}
	if err := c.Log().Close(); err != nil {
		t.Fatal(err)
	}

	// A torn final log is truncated and reopened; appends land after the cut.
	data, _ := os.ReadFile(c.Path(3))
	if err := os.WriteFile(c.Path(3), data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	got = nil
	if rep, err = c.Recover(2, collect(&got, 0)); err != nil || !rep.Torn || rep.Records != 3 {
		t.Fatalf("torn tail: %+v, %v", rep, err)
	}
	if err := c.Log().Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	c.Log().Close()
	got = nil
	if rep, err = c.Recover(2, collect(&got, 0)); err != nil || rep.Torn || !bytes.Equal(got[len(got)-1], []byte("tail")) {
		t.Fatalf("after truncation: %+v, %v", rep, err)
	}
	c.Log().Close()

	// The same tear in a log that is not the last is corruption.
	writeLog(t, c.Path(4), nil)
	data, _ = os.ReadFile(c.Path(3))
	if err := os.WriteFile(c.Path(3), data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(2, collect(&got, 0)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("torn sealed log: err = %v, want ErrCorrupt", err)
	}

	// A missing log between start and the last is a gap.
	if err := os.Remove(c.Path(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(2, collect(&got, 0)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("gap: err = %v, want ErrCorrupt", err)
	}

	// With nothing at or above start, log start is created.
	fresh := NewChain(faultfs.OS{}, t.TempDir(), "wal")
	if rep, err := fresh.Recover(5, collect(&got, 0)); err != nil || rep != (Replay{}) || fresh.End() != (Pos{5, HeaderSize}) {
		t.Fatalf("empty chain: %+v, %v, end %v", rep, err, fresh.End())
	}
	fresh.Log().Close()
}

// TestChainReadAcrossLogs: Read pages committed records across sealed
// logs up to a captured end, honours its byte budget, and reports a
// rotated-away log as not-exist and a torn sealed log as corruption.
func TestChainReadAcrossLogs(t *testing.T) {
	payloads := testPayloads(5)
	c := NewChain(faultfs.OS{}, t.TempDir(), "wal")
	if _, err := c.Recover(1, collect(new([][]byte), 0)); err != nil {
		t.Fatal(err)
	}
	var want []Pos
	for i, p := range payloads {
		if i == 2 {
			sealed, err := c.Rotate(nil)
			if err != nil {
				t.Fatal(err)
			}
			sealed.Close()
		}
		if err := c.Log().Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, c.End())
	}
	end := c.End()
	if err := c.Log().Append([]byte("past the captured end")); err != nil {
		t.Fatal(err)
	}
	defer c.Log().Close()

	var got [][]byte
	var next []Pos
	read := func(from Pos, maxBytes int64) (Pos, error) {
		got, next = nil, nil
		return c.Read(from, end, maxBytes, func(p []byte, n Pos) {
			got, next = append(got, bytes.Clone(p)), append(next, n)
		})
	}
	start := Pos{1, HeaderSize}
	if pos, err := read(start, math.MaxInt64); err != nil || pos != end || !slices.Equal(next, want) {
		t.Fatalf("full read: at %v (end %v), next %v want %v, %v", pos, end, next, want, err)
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if pos, err := read(start, 1); err != nil || len(got) != 1 || pos != want[0] {
		t.Fatalf("one-byte budget: %d records to %v, %v", len(got), pos, err)
	}
	if pos, err := read(want[1], math.MaxInt64); err != nil || len(got) != 3 || pos != end {
		t.Fatalf("from the end of a sealed log: %d records to %v, %v", len(got), pos, err)
	}
	var total int64
	for i, p := range payloads {
		total += FrameOverhead + int64(len(p))
		if i == 2 {
			total += HeaderSize // the second log's header sits between
		}
	}
	if b := c.Between(start, end); b != total-HeaderSize {
		t.Errorf("Between = %d, want %d", b, total-HeaderSize)
	}

	data, _ := os.ReadFile(c.Path(1))
	if err := os.WriteFile(c.Path(1), data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := read(start, math.MaxInt64); !errors.Is(err, ErrCorrupt) {
		t.Errorf("torn sealed log: err = %v, want ErrCorrupt", err)
	}
	if err := c.Prune(2); err != nil {
		t.Fatal(err)
	}
	if _, err := read(start, math.MaxInt64); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("pruned log: err = %v, want os.ErrNotExist", err)
	}
	if b := c.Between(start, end); b != c.Between(Pos{2, HeaderSize}, end) {
		t.Errorf("Between counts a pruned log: %d", b)
	}
}

// flakySyncFS fails the file fsync its countdown reaches, without
// crashing the disk: the error a live system can see and keep running
// after.
type flakySyncFS struct {
	faultfs.FS
	countdown *int
}

type flakySyncFile struct {
	faultfs.File
	countdown *int
}

func (f flakySyncFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	x, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return flakySyncFile{x, f.countdown}, nil
}

func (f flakySyncFile) Sync() error {
	if *f.countdown--; *f.countdown == 0 {
		return errors.New("fsync: input/output error")
	}
	return f.File.Sync()
}

// TestChainFailedRotationLeavesNoLog: a rotation that fails on a live disk
// — at the new log's header or at its head record — removes its partial
// log, so appends carry on in the current log and a later tear there is
// still the last log's tear, not a sealed log's.
func TestChainFailedRotationLeavesNoLog(t *testing.T) {
	for failAt, what := range map[int]string{1: "header", 2: "head record"} {
		countdown := 0
		c := NewChain(flakySyncFS{faultfs.OS{}, &countdown}, t.TempDir(), "journal")
		if _, err := c.Rotate([]byte("C")); err != nil {
			t.Fatal(err)
		}
		countdown = failAt
		if _, err := c.Rotate([]byte("C")); err == nil {
			t.Fatalf("%s: rotation with a failing fsync succeeded", what)
		}
		if seqs, _ := c.List(); !slices.Equal(seqs, []uint64{1}) || c.Seq() != 1 {
			t.Fatalf("%s: logs %v, open %d after a failed rotation", what, seqs, c.Seq())
		}
		if err := c.Log().Append([]byte("d")); err != nil {
			t.Fatal(err)
		}
		c.Log().Close()
		data, _ := os.ReadFile(c.Path(1))
		if err := os.WriteFile(c.Path(1), data[:len(data)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		if rep, err := c.Recover(1, collect(new([][]byte), 0)); err != nil || !rep.Torn || rep.Records != 1 {
			t.Fatalf("%s: recovery after a failed rotation: %+v, %v", what, rep, err)
		}
		c.Log().Close()
	}
}

// countFS records the cumulative bytes after every file write, and
// whether the write went to a log, so a clean run names the boundaries a
// byte-cut crash matrix cuts between.
type countFS struct {
	faultfs.FS
	ends  *[]int64
	toLog *[]bool
}

type countFile struct {
	faultfs.File
	fs countFS
}

func (c countFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countFile{f, c}, nil
}

func (f countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	ends := *f.fs.ends
	*f.fs.ends = append(ends, ends[len(ends)-1]+int64(n))
	*f.fs.toLog = append(*f.fs.toLog, filepath.Ext(f.Name()) == ".log")
	return n, err
}

// chainOwner is one way of keeping a checkpoint beside a chain. run drives
// create → appends → rotate → appends → checkpoint → prune → append and
// returns how many data records were acknowledged; recover rebuilds the
// record list from the newest checkpoint and the chain.
type chainOwner struct {
	name    string
	run     func(fsys faultfs.FS, dir string, data [][]byte) int
	recover func(t *testing.T, dir string, data [][]byte) (*Chain, [][]byte, Replay, bool)
}

var chainOwners = []chainOwner{
	{
		// The checkpoint lives outside the chain, as the core's snapshot
		// does: a file naming the first log it does not cover and how many
		// records the logs below hold.
		name: "checkpoint-outside",
		run: func(fsys faultfs.FS, dir string, data [][]byte) int {
			c := NewChain(fsys, dir, "wal")
			if _, err := c.Recover(1, collect(new([][]byte), 0)); err != nil {
				return 0
			}
			acked := 0
			for i, p := range data {
				switch i {
				case 3:
					sealed, err := c.Rotate(nil)
					if err != nil {
						return acked
					}
					sealed.Close()
				case 5:
					err := faultfs.WriteAtomic(fsys, filepath.Join(dir, "ckpt"), func(w io.Writer) error {
						return binary.Write(w, binary.LittleEndian, [2]uint64{2, 3})
					})
					if err != nil || c.Prune(2) != nil {
						return acked
					}
				}
				if c.Log().Append(p) != nil {
					return acked
				}
				acked++
			}
			c.Log().Close()
			return acked
		},
		recover: func(t *testing.T, dir string, data [][]byte) (*Chain, [][]byte, Replay, bool) {
			ckpt := [2]uint64{1, 0}
			if b, err := os.ReadFile(filepath.Join(dir, "ckpt")); err == nil {
				if err := binary.Read(bytes.NewReader(b), binary.LittleEndian, &ckpt); err != nil {
					t.Fatal(err)
				}
			}
			c := NewChain(faultfs.OS{}, dir, "wal")
			got := slices.Clone(data[:ckpt[1]])
			rep, err := c.Recover(ckpt[0], collect(&got, 0))
			if err != nil {
				t.Fatal(err)
			}
			return c, got, rep, true
		},
	},
	{
		// The checkpoint is the head record of a log in the chain, as a
		// feed journal's is: 'C' plus the records it covers.
		name: "head-inside",
		run: func(fsys faultfs.FS, dir string, data [][]byte) int {
			c := NewChain(fsys, dir, "journal")
			if _, err := c.Rotate([]byte{'C', 0}); err != nil {
				return 0
			}
			acked := 0
			for i, p := range data {
				switch i {
				case 3:
					sealed, err := c.Rotate([]byte{'C', 3})
					if err != nil {
						return acked
					}
					sealed.Close()
				case 5:
					if c.Prune(c.Seq()) != nil {
						return acked
					}
				}
				if c.Log().Append(p) != nil {
					return acked
				}
				acked++
			}
			c.Log().Close()
			return acked
		},
		recover: func(t *testing.T, dir string, data [][]byte) (*Chain, [][]byte, Replay, bool) {
			c := NewChain(faultfs.OS{}, dir, "journal")
			seqs, err := c.List()
			if err != nil {
				t.Fatal(err)
			}
			for i := len(seqs) - 1; i >= 0; i-- {
				head, err := c.Head(seqs[i])
				if err != nil {
					t.Fatal(err)
				}
				if head == nil || head[0] != 'C' {
					continue // no record, or a continuation past a failed rotation
				}
				got := slices.Clone(data[:head[1]])
				rep, err := c.Recover(seqs[i], collect(&got, seqs[i]))
				if err != nil {
					t.Fatal(err)
				}
				return c, got, rep, true
			}
			return c, nil, Replay{}, false // no checkpoint ever landed
		},
	},
}

// TestChainCrashMatrix cuts the disk at every interesting byte of a chain's
// life — creation, appends, rotation (with and without a head record),
// the checkpoint and pruning — for both places a checkpoint can live, and
// proves recovery returns exactly the acknowledged records, flags a tear
// exactly when the cut fell inside a log write, and leaves a chain that
// takes appends.
func TestChainCrashMatrix(t *testing.T) {
	data := make([][]byte, 6)
	for i := range data {
		data[i] = append([]byte{'D'}, testPayloads(6)[i]...)
	}
	for _, owner := range chainOwners {
		t.Run(owner.name, func(t *testing.T) {
			ends, toLog := []int64{0}, []bool{}
			if acked := owner.run(countFS{faultfs.OS{}, &ends, &toLog}, t.TempDir(), data); acked != len(data) {
				t.Fatalf("clean run acknowledged %d of %d", acked, len(data))
			}
			logWrite := func(cut int64) bool { // cut falls inside a write to a log
				for i := 1; i < len(ends); i++ {
					if ends[i-1] < cut && cut < ends[i] {
						return toLog[i-1]
					}
				}
				return false
			}
			for _, cut := range faultfs.CrashPoints(ends) {
				dir := t.TempDir()
				acked := owner.run(faultfs.NewInject(nil, faultfs.Config{WriteBudget: cut, FailSyncAfter: -1}), dir, data)
				c, got, rep, ok := owner.recover(t, dir, data)
				if !ok {
					if acked != 0 {
						t.Fatalf("cut %d: %d records acknowledged, no checkpoint found", cut, acked)
					}
					continue
				}
				if len(got) != acked || (acked > 0 && !bytes.Equal(got[acked-1], data[acked-1])) {
					t.Fatalf("cut %d: recovered %d records, %d acknowledged", cut, len(got), acked)
				}
				if rep.Torn != logWrite(cut) {
					t.Errorf("cut %d: Torn = %v", cut, rep.Torn)
				}
				if seqs, _ := c.List(); seqs[len(seqs)-1] != c.Seq() {
					t.Errorf("cut %d: open log %d is not the last of %v", cut, c.Seq(), seqs)
				}
				if err := c.Log().Append([]byte("after")); err != nil {
					t.Fatalf("cut %d: append after recovery: %v", cut, err)
				}
				c.Log().Close()
				if _, again, _, _ := owner.recover(t, dir, data); len(again) != acked+1 {
					t.Fatalf("cut %d: second recovery has %d records, want %d", cut, len(again), acked+1)
				}
			}
		})
	}
}
