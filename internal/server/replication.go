package server

import (
	"errors"
	"net/http"
	"strconv"

	"strgindex/internal/core"
	"strgindex/internal/obs"
)

// Replication handlers: the primary side of the WAL-streaming protocol
// (see internal/replica for the wire format and the replica-side loop).
// Register and ack are tiny JSON POSTs; snapshot and wal stream opaque
// verified containers (application/octet-stream) — the bytes carry their
// own CRCs and Merkle root, so transport framing stays dumb. All of them
// ride the regular middleware: request IDs, metrics, admission control —
// a replica herd competes for the same in-flight slots as queries and is
// shed with jittered Retry-After like any other client.

// replIdentRequest is the POST /v1/replication/register and ack body;
// seq/off are only meaningful for ack.
type replIdentRequest struct {
	Replica string `json:"replica"`
	Seq     uint64 `json:"seq"`
	Off     int64  `json:"off"`
}

const replBodyLimit = 4 << 10

// handleReplRegister is POST /v1/replication/register: adds the replica
// to the registry with an acked position of zero, pinning the retained
// WAL chain before the replica fetches its bootstrap snapshot.
func (s *Server) handleReplRegister(w http.ResponseWriter, r *http.Request) {
	var req replIdentRequest
	if !s.decode(w, r, replBodyLimit, &req) {
		return
	}
	if err := s.opts.Replication.Register(req.Replica); err != nil {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "registered"})
}

// handleReplAck is POST /v1/replication/ack: records the replica's
// durably-applied position so WAL rotation can release older logs.
func (s *Server) handleReplAck(w http.ResponseWriter, r *http.Request) {
	var req replIdentRequest
	if !s.decode(w, r, replBodyLimit, &req) {
		return
	}
	if err := s.opts.Replication.Ack(req.Replica, core.WALPos{Seq: req.Seq, Off: req.Off}); err != nil {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "acked"})
}

// handleReplSnapshot is GET /v1/replication/snapshot: streams a
// bootstrap snapshot. The container carries its own CRC trailer, so a
// failure mid-stream leaves the client with bytes that fail verification
// — the envelope is only written if nothing has gone out yet.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("replica"); id != "" {
		s.opts.Replication.Touch(id)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	cw := &countingWriter{w: w}
	pos, err := s.opts.Replication.WriteSnapshot(cw)
	if err != nil {
		if cw.n == 0 {
			writeError(w, r, http.StatusInternalServerError, CodeInternal, "snapshot: %v", err)
		} else {
			s.log.Error("snapshot stream failed mid-body",
				"request_id", obs.RequestIDFrom(r.Context()), "written", cw.n, "err", err)
		}
		return
	}
	s.log.Info("bootstrap snapshot served",
		"request_id", obs.RequestIDFrom(r.Context()), "pos", pos.String(), "bytes", cw.n)
}

type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// handleReplWAL is GET /v1/replication/wal?replica&seq&off[&max]: one
// Merkle-rooted batch of WAL frames starting at the requested position.
// A position the primary no longer retains answers 410 wal_gone — the
// replica's cue to re-bootstrap.
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if id := q.Get("replica"); id != "" {
		s.opts.Replication.Touch(id)
	}
	seq, err := strconv.ParseUint(q.Get("seq"), 10, 64)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, "bad seq: %v", err)
		return
	}
	off, err := strconv.ParseInt(q.Get("off"), 10, 64)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, "bad off: %v", err)
		return
	}
	var maxBytes int64
	if m := q.Get("max"); m != "" {
		if maxBytes, err = strconv.ParseInt(m, 10, 64); err != nil {
			writeError(w, r, http.StatusBadRequest, CodeBadRequest, "bad max: %v", err)
			return
		}
	}
	batch, err := s.opts.Replication.Batch(core.WALPos{Seq: seq, Off: off}, maxBytes)
	if errors.Is(err, core.ErrWALGone) {
		writeError(w, r, http.StatusGone, CodeWALGone, "%v", err)
		return
	}
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, CodeInternal, "wal batch: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(batch)
}

// handleReplDigest is GET /v1/replication/digest: the primary's
// anti-entropy state digest (position, index hash, corpus hash).
func (s *Server) handleReplDigest(w http.ResponseWriter, r *http.Request) {
	d, err := s.opts.Replication.Digest()
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, CodeInternal, "digest: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, d)
}

// handleReplStatus is GET /v1/replication/status, answered by both
// roles: the primary reports its registry and committed WAL end, a
// replica its applied position, lag and health.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	if s.opts.Replica != nil {
		writeJSON(w, http.StatusOK, s.opts.Replica.Status())
		return
	}
	writeJSON(w, http.StatusOK, s.opts.Replication.Status())
}
