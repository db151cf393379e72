package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"strgindex/internal/core"
	"strgindex/internal/faultfs"
)

// resyncMarker, present in the data directory, records that the local
// state was found divergent (or behind the primary's retained WAL) and
// must be discarded: the next Open wipes the directory and bootstraps
// fresh. Crash-only repair — the running process never swaps its
// database out from under lock-free readers.
const resyncMarker = "RESYNC"

// ErrResyncNeeded is returned by Run when the replica can no longer
// follow the primary incrementally: its position fell off the primary's
// retained WAL, or anti-entropy detected divergence. The process should
// exit and restart; Open sees the persisted marker, wipes the local
// state, and re-bootstraps.
var ErrResyncNeeded = errors.New("replica: local state requires re-bootstrap")

// Config configures a replica.
type Config struct {
	// Primary is the base URL of the primary's HTTP API. Required.
	Primary string
	// ID identifies this replica in the primary's registry (retention is
	// held per ID). Required.
	ID string
	// Dir is the local data directory. Required.
	Dir string
	// DB is the core configuration — it must match the primary's (shard
	// count included) for byte-identity.
	DB core.Config
	// Durability tunes the local WAL/snapshot thresholds; Dir and FS are
	// taken from here when set.
	Durability core.Durability
	// LagMax flips Healthy to an error once the replica trails the
	// primary by more than this many committed WAL bytes. 0 means 64 MiB;
	// negative disables the bound.
	LagMax int64
	// PollInterval is the idle wait between fetches when caught up.
	// 0 means 250ms.
	PollInterval time.Duration
	// BatchBytes asks the primary for roughly this many payload bytes per
	// batch. 0 accepts the primary's default.
	BatchBytes int64
	// AntiEntropyInterval paces digest comparisons against the primary
	// (only run when caught up at a matched position). 0 means 30s;
	// negative disables them.
	AntiEntropyInterval time.Duration
	// BackoffMin/BackoffMax bound the exponential retry backoff of the
	// connection loop. 0 means 100ms / 5s.
	BackoffMin, BackoffMax time.Duration
	// Client is the HTTP client; nil means a 30s-timeout client.
	Client *http.Client
	// Logger receives connection-loop events; nil discards them.
	Logger *slog.Logger
}

func (c *Config) fs() faultfs.FS {
	if c.Durability.FS != nil {
		return c.Durability.FS
	}
	return faultfs.OS{}
}

func (c *Config) withDefaults() error {
	if c.Primary == "" || c.ID == "" || c.Dir == "" {
		return fmt.Errorf("replica: Primary, ID and Dir are required")
	}
	if _, err := url.Parse(c.Primary); err != nil {
		return fmt.Errorf("replica: primary URL: %w", err)
	}
	if c.LagMax == 0 {
		c.LagMax = 64 << 20
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 250 * time.Millisecond
	}
	if c.AntiEntropyInterval == 0 {
		c.AntiEntropyInterval = 30 * time.Second
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	c.Durability.Dir = c.Dir
	if c.Durability.FS == nil {
		c.Durability.FS = faultfs.OS{}
	}
	return nil
}

// Replica is a read replica: a replica-mode SharedDB kept in sync by a
// connection loop that fetches Merkle-verified WAL batches from the
// primary.
type Replica struct {
	cfg Config
	db  *core.SharedDB

	lag      atomic.Int64
	synced   atomic.Bool // one full catch-up has completed
	diverged atomic.Bool
	lastSeen atomic.Int64 // unix nanos of the last successful primary contact
}

// Open prepares a replica: if the directory holds no usable state (or a
// resync marker from a previous incarnation), it registers with the
// primary, downloads and verifies a bootstrap snapshot, and installs it;
// then it opens the replica-mode database through the normal crash
// recovery path. A corrupt local state is treated like a resync marker —
// replica state is derived, so the repair is always wipe + re-fetch.
func Open(ctx context.Context, cfg Config) (*Replica, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	fsys := cfg.fs()
	if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("replica: creating %s: %w", cfg.Dir, err)
	}
	r := &Replica{cfg: cfg}

	if _, err := fsys.Stat(join(cfg.Dir, resyncMarker)); err == nil {
		cfg.Logger.Warn("resync marker found; discarding local state", "dir", cfg.Dir)
		if err := r.wipeDir(); err != nil {
			return nil, err
		}
	}
	empty, err := r.dirEmpty()
	if err != nil {
		return nil, err
	}
	if empty {
		if err := r.bootstrap(ctx); err != nil {
			return nil, err
		}
	}

	db, _, err := core.OpenReplica(cfg.DB, cfg.Durability)
	if errors.Is(err, core.ErrCorrupt) {
		// Local state is derived and re-fetchable: wipe and bootstrap
		// rather than refusing to start.
		cfg.Logger.Warn("local replica state corrupt; re-bootstrapping", "err", err)
		if werr := r.wipeDir(); werr != nil {
			return nil, werr
		}
		if berr := r.bootstrap(ctx); berr != nil {
			return nil, berr
		}
		db, _, err = core.OpenReplica(cfg.DB, cfg.Durability)
	}
	if err != nil {
		return nil, err
	}
	r.db = db
	// Re-assert registration and the recovered position so the primary
	// pins retention from our true resume point.
	_ = r.ack(ctx, db.ReplicaPos())
	return r, nil
}

func join(dir, name string) string { return dir + string(os.PathSeparator) + name }

func (r *Replica) dirEmpty() (bool, error) {
	entries, err := r.cfg.fs().ReadDir(r.cfg.Dir)
	if err != nil {
		return false, fmt.Errorf("replica: reading %s: %w", r.cfg.Dir, err)
	}
	return len(entries) == 0, nil
}

func (r *Replica) wipeDir() error {
	fsys := r.cfg.fs()
	entries, err := fsys.ReadDir(r.cfg.Dir)
	if err != nil {
		return fmt.Errorf("replica: reading %s: %w", r.cfg.Dir, err)
	}
	for _, e := range entries {
		if err := fsys.Remove(join(r.cfg.Dir, e.Name())); err != nil {
			return fmt.Errorf("replica: clearing %s: %w", r.cfg.Dir, err)
		}
	}
	return fsys.SyncDir(r.cfg.Dir)
}

// markResync persists the resync decision so the next Open repairs even
// if this process dies immediately after. Best effort: losing the marker
// only means divergence is re-detected on the next run.
func (r *Replica) markResync() {
	fsys := r.cfg.fs()
	if f, err := fsys.OpenFile(join(r.cfg.Dir, resyncMarker), os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
		f.Close()
		_ = fsys.SyncDir(r.cfg.Dir)
	}
}

// bootstrap registers with the primary (pinning WAL retention before the
// snapshot position exists), downloads the snapshot to a temp file,
// verifies the container checksum, and installs it atomically.
func (r *Replica) bootstrap(ctx context.Context) error {
	if err := r.register(ctx); err != nil {
		return err
	}
	fsys := r.cfg.fs()
	tmp := join(r.cfg.Dir, "bootstrap.strg.tmp")
	final := core.SnapshotPath(r.cfg.Dir)

	// The replica id rides along so the primary Touches our registration
	// as it serves the stream.
	resp, err := r.get(ctx, "/v1/replication/snapshot", url.Values{"replica": {r.cfg.ID}})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("bootstrap", resp)
	}
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("replica: creating %s: %w", tmp, err)
	}
	// Re-register periodically while the snapshot streams: a download
	// longer than the primary's replica TTL would otherwise expire the
	// registration mid-bootstrap, letting rotation delete the WAL between
	// the snapshot position and our first ack.
	kctx, kcancel := context.WithCancel(ctx)
	kdone := make(chan struct{})
	go func() {
		defer close(kdone)
		t := time.NewTicker(30 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-kctx.Done():
				return
			case <-t.C:
				_ = r.register(kctx)
			}
		}
	}()
	_, cerr := io.Copy(f, resp.Body)
	kcancel()
	<-kdone
	if serr := f.Sync(); cerr == nil {
		cerr = serr
	}
	if clerr := f.Close(); cerr == nil {
		cerr = clerr
	}
	if cerr != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("replica: downloading bootstrap: %w", cerr)
	}
	// Verify before install: a torn or bit-flipped download fails the
	// container CRC here and is re-fetched, never loaded.
	pos, _, err := core.InspectSnapshotFile(fsys, tmp)
	if err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("replica: bootstrap verification: %w", err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		return fmt.Errorf("replica: installing bootstrap: %w", err)
	}
	if err := fsys.SyncDir(r.cfg.Dir); err != nil {
		return err
	}
	mBootstraps.Inc()
	r.cfg.Logger.Info("bootstrap installed", "pos", pos.String())
	return r.ack(ctx, pos)
}

// DB exposes the replica-mode database for serving queries.
func (r *Replica) DB() *core.SharedDB { return r.db }

// Healthy implements the readiness contract: nil while the replica is
// serving verified, fresh-enough state. It fails when anti-entropy found
// divergence, before the first full catch-up, and when lag exceeds
// LagMax. A dead primary does NOT fail it — the replica keeps serving
// reads at its last verified version (lag freezes at the last report).
func (r *Replica) Healthy() error {
	if r.diverged.Load() {
		return fmt.Errorf("replica: state diverged from primary; awaiting re-bootstrap")
	}
	if !r.synced.Load() {
		return fmt.Errorf("replica: initial sync not complete")
	}
	if lag := r.lag.Load(); r.cfg.LagMax > 0 && lag > r.cfg.LagMax {
		return fmt.Errorf("replica: lag %d bytes exceeds bound %d", lag, r.cfg.LagMax)
	}
	return nil
}

// Status is the replica's replication status report.
type Status struct {
	Role     string      `json:"role"`
	Primary  string      `json:"primary"`
	Applied  core.WALPos `json:"applied"`
	Segments int         `json:"segments"`
	LagBytes int64       `json:"lag_bytes"`
	Synced   bool        `json:"synced"`
	Diverged bool        `json:"diverged"`
	// LastContact is seconds since the last successful primary exchange
	// (-1 before the first).
	LastContact float64 `json:"last_contact_seconds"`
}

// Status reports the replica's applied position, lag and health.
func (r *Replica) Status() Status {
	st := Status{
		Role:     "replica",
		Primary:  r.cfg.Primary,
		Applied:  r.db.ReplicaPos(),
		Segments: r.db.AppliedSegments(),
		LagBytes: r.lag.Load(),
		Synced:   r.synced.Load(),
		Diverged: r.diverged.Load(),
	}
	st.LastContact = -1
	if ns := r.lastSeen.Load(); ns > 0 {
		st.LastContact = time.Since(time.Unix(0, ns)).Seconds()
	}
	return st
}

// Close checkpoints and closes the local database.
func (r *Replica) Close() error {
	if err := r.db.Checkpoint(); err != nil {
		r.cfg.Logger.Warn("final replica checkpoint failed", "err", err)
	}
	return r.db.Close()
}

// Run drives the connection loop until ctx is canceled or the replica
// needs a re-bootstrap (ErrResyncNeeded — the caller should exit and
// restart; Open repairs). Transient errors — primary down, shed requests,
// torn or corrupt batches — are retried with exponential backoff and
// jitter; corrupt batches are never applied, only re-fetched.
func (r *Replica) Run(ctx context.Context) error {
	backoff := r.cfg.BackoffMin
	lastAE := time.Now()
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		n, retryAfter, err := r.syncOnce(ctx)
		switch {
		case err == nil:
			backoff = r.cfg.BackoffMin
			caughtUp := n == 0
			if caughtUp {
				r.synced.Store(true)
				if r.cfg.AntiEntropyInterval > 0 && time.Since(lastAE) >= r.cfg.AntiEntropyInterval {
					lastAE = time.Now()
					if err := r.antiEntropy(ctx); err != nil {
						if errors.Is(err, ErrResyncNeeded) {
							return err
						}
						r.cfg.Logger.Warn("anti-entropy check failed", "err", err)
					}
				}
				if !sleep(ctx, r.cfg.PollInterval) {
					return ctx.Err()
				}
			}
		case errors.Is(err, ErrResyncNeeded):
			return err
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fallthrough
		default:
			mReconnects.Inc()
			wait := backoff + time.Duration(rand.Int64N(int64(backoff)+1))
			if retryAfter > wait {
				// A shed primary told us when to come back; its hint is
				// already jittered server-side.
				wait = retryAfter
			}
			r.cfg.Logger.Warn("replication fetch failed; backing off",
				"err", err, "wait", wait.String())
			if !sleep(ctx, wait) {
				return ctx.Err()
			}
			if backoff *= 2; backoff > r.cfg.BackoffMax {
				backoff = r.cfg.BackoffMax
			}
		}
	}
}

func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// syncOnce fetches and applies one batch. It returns the number of
// records applied (0 = caught up), and on a 429 the primary's
// Retry-After hint.
func (r *Replica) syncOnce(ctx context.Context) (int, time.Duration, error) {
	from := r.db.ReplicaPos()
	if from.IsZero() {
		return 0, 0, fmt.Errorf("replica: no recovered position; %w", ErrResyncNeeded)
	}
	q := url.Values{
		"replica": {r.cfg.ID},
		"seq":     {strconv.FormatUint(from.Seq, 10)},
		"off":     {strconv.FormatInt(from.Off, 10)},
	}
	if r.cfg.BatchBytes > 0 {
		q.Set("max", strconv.FormatInt(r.cfg.BatchBytes, 10))
	}
	resp, err := r.get(ctx, "/v1/replication/wal", q)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// Our position fell off the primary's retained WAL (e.g. the
		// primary restarted and lost the registry). Incremental catch-up
		// is impossible; persist the decision and ask for a restart.
		r.markResync()
		r.diverged.Store(true)
		return 0, 0, fmt.Errorf("replica: position %v no longer retained by primary: %w", from, ErrResyncNeeded)
	case http.StatusTooManyRequests:
		ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return 0, time.Duration(ra) * time.Second, fmt.Errorf("replica: primary shed the fetch (429)")
	default:
		return 0, 0, httpError("wal fetch", resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// The connection died mid-body: indistinguishable from a torn
		// batch, and handled the same way — count and re-fetch.
		mRejectedTruncated.Inc()
		return 0, 0, fmt.Errorf("replica: reading batch: %w", err)
	}
	b, err := DecodeBatch(data)
	if err != nil {
		switch {
		case errors.Is(err, ErrTruncated):
			mRejectedTruncated.Inc()
		default:
			mRejectedCorrupt.Inc()
		}
		return 0, 0, err
	}
	if b.Start != from {
		mRejectedCorrupt.Inc()
		return 0, 0, fmt.Errorf("%w: batch starts at %v, requested %v", ErrCorrupt, b.Start, from)
	}
	r.lastSeen.Store(time.Now().UnixNano())
	for _, f := range b.Frames {
		if err := r.db.ApplyReplicated(f.Payload, f.Next); err != nil {
			// The failed record was rolled back; ReplicaPos still names
			// it, so the retry re-fetches from exactly here.
			return 0, 0, fmt.Errorf("replica: applying record at %v: %w", f.Next, err)
		}
		mRecordsApplied.Inc()
	}
	r.lag.Store(b.Lag)
	mLagBytes.Set(b.Lag)
	if len(b.Frames) > 0 {
		mBatchesApplied.Inc()
		if err := r.ack(ctx, b.Next); err != nil {
			// Retention lags but replication is unaffected.
			r.cfg.Logger.Warn("ack failed", "err", err)
		}
	}
	return len(b.Frames), 0, nil
}

// antiEntropy compares state digests with the primary. Digests are only
// comparable at equal positions, so the check is skipped (without
// counting) unless the primary is idle at exactly our applied position.
func (r *Replica) antiEntropy(ctx context.Context) error {
	resp, err := r.get(ctx, "/v1/replication/digest", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("digest", resp)
	}
	var theirs core.StateDigest
	if err := json.NewDecoder(resp.Body).Decode(&theirs); err != nil {
		return fmt.Errorf("replica: decoding digest: %w", err)
	}
	if theirs.Pos != r.db.ReplicaPos() {
		return nil // not at a matched position; nothing to compare
	}
	ours, err := r.db.ReplicationDigest()
	if err != nil {
		return err
	}
	if ours.Pos != theirs.Pos {
		return nil // we moved while computing; skip
	}
	mAntiEntropyChecks.Inc()
	mismatch := ours.Corpus != theirs.Corpus || len(ours.Shards) != len(theirs.Shards)
	if !mismatch {
		for i := range ours.Shards {
			if ours.Shards[i] != theirs.Shards[i] {
				r.cfg.Logger.Error("anti-entropy: shard diverged", "shard", i, "pos", ours.Pos.String())
				mismatch = true
			}
		}
	}
	if mismatch {
		mAntiEntropyRepairs.Inc()
		r.markResync()
		r.diverged.Store(true)
		return fmt.Errorf("replica: state digest mismatch at %v: %w", ours.Pos, ErrResyncNeeded)
	}
	return nil
}

func (r *Replica) register(ctx context.Context) error {
	body, _ := json.Marshal(map[string]string{"replica": r.cfg.ID})
	resp, err := r.post(ctx, "/v1/replication/register", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("register", resp)
	}
	return nil
}

func (r *Replica) ack(ctx context.Context, pos core.WALPos) error {
	body, _ := json.Marshal(struct {
		Replica string `json:"replica"`
		Seq     uint64 `json:"seq"`
		Off     int64  `json:"off"`
	}{r.cfg.ID, pos.Seq, pos.Off})
	resp, err := r.post(ctx, "/v1/replication/ack", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("ack", resp)
	}
	return nil
}

func (r *Replica) get(ctx context.Context, path string, q url.Values) (*http.Response, error) {
	u := r.cfg.Primary + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	return r.cfg.Client.Do(req)
}

func (r *Replica) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.cfg.Primary+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return r.cfg.Client.Do(req)
}

// httpError folds a non-OK response (and the server's JSON error
// envelope, if present) into one error.
func httpError(what string, resp *http.Response) error {
	snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return fmt.Errorf("replica: %s: primary returned %s: %s", what, resp.Status, bytes.TrimSpace(snippet))
}
