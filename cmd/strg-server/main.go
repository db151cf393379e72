// Command strg-server serves a video database over HTTP (JSON API).
//
//	strg-server -addr :8080 [-data-dir ./data] [-db db.gob] [-shards 4] [-pprof]
//
// Endpoints:
//
//	POST /v1/segments       ingest a segmented video segment
//	POST /v1/query          declarative query: a where predicate tree and/or
//	                        a similar clause (k-NN, exact, range, approx)
//	GET  /v1/stats          database statistics
//	GET  /healthz           liveness probe (200 while the process runs)
//	GET  /readyz            readiness probe (503 until recovery completes,
//	                        and again while shutdown drains)
//	GET  /metrics           Prometheus text exposition
//
// With -feeds (requires -data-dir) the live-feed surface is mounted:
// POST /v1/feeds/{id}/frames accepts newline-delimited frame batches
// (crash-safe journals per feed, epoch commits through the ordinary
// ingest path), POST /v1/subscriptions registers standing queries, and
// GET /v1/subscriptions/{id}/events streams their matches over
// Server-Sent Events. See internal/feed and DESIGN.md §16.
//
// With -data-dir the database is durable: every ingest is written to a
// checksummed write-ahead log before it is acknowledged, and on boot the
// server recovers by loading the last snapshot and replaying the log —
// the listener answers probes during replay, but /readyz stays 503 until
// the database is consistent.
//
// Admission control sheds load before it hurts: at most -max-inflight
// API requests run concurrently, excess requests wait up to
// -queue-timeout and are then refused with 429 + Retry-After, and every
// request carries a -request-timeout server-side deadline (504 when
// exceeded). Probe and metrics endpoints are exempt.
//
// With -data-dir (and no -replicate-from) the server is also a
// replication primary: read replicas register, fetch a bootstrap
// snapshot and tail the WAL over /v1/replication/*. With -replicate-from
// the server is a read replica of the given primary: ingest answers 403,
// queries serve from the locally replicated state, and /readyz answers
// 503 while replication lag exceeds -replica-lag-max or the local state
// needs a re-bootstrap. A replica that detects divergence (or falls off
// the primary's retained WAL) exits non-zero after persisting a RESYNC
// marker — restarting it wipes the local state and bootstraps fresh.
//
// With -pprof, net/http/pprof profiling handlers are mounted under
// /debug/pprof/. SIGINT/SIGTERM trigger a graceful shutdown: readiness
// drops, the listener stops accepting, in-flight requests get -grace to
// drain, and a durable database writes a final checkpoint so the next
// boot loads one snapshot instead of replaying the log. A second signal
// forces immediate exit.
//
// See internal/server for the request formats.
package main

import (
	"context"
	"errors"
	"flag"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"strgindex/internal/core"
	"strgindex/internal/feed"
	"strgindex/internal/index"
	"strgindex/internal/obs"
	"strgindex/internal/replica"
	"strgindex/internal/server"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data-dir", "", "durable data directory (write-ahead log + snapshots); empty = in-memory only")
	dbPath := flag.String("db", "", "optional database file written by strg-ingest to preload (in-memory mode)")
	workers := flag.Int("workers", 0, "worker budget for ingest and search (0 = one per CPU, 1 = sequential); responses are identical at every setting")
	shards := flag.Int("shards", 4, "copy-on-write index shard count (1-256); queries never block on ingest, and responses are identical at every setting")
	approx := flag.Bool("approx", false, "build the approximate similarity tier (IVF over deterministic OG embeddings); queries opt in per-request with \"mode\": \"approx\" — default paths are untouched")
	nlists := flag.Int("nlists", 0, "IVF inverted-list count for -approx (0 = built-in default)")
	nprobe := flag.Int("nprobe", 0, "default probe count for approximate queries that do not set one (0 = ceil(sqrt(nlists)))")
	pprof := flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	grace := flag.Duration("grace", 10*time.Second, "shutdown drain budget for in-flight requests")
	maxInFlight := flag.Int("max-inflight", 256, "maximum concurrently served API requests (0 = unlimited); excess requests are shed with 429")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "how long a request may wait for an in-flight slot before 429")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "server-side deadline per API request (0 = none)")
	feeds := flag.Bool("feeds", false, "mount the live-feed and standing-query endpoints (/v1/feeds/*, /v1/subscriptions/*); requires -data-dir, incompatible with -replicate-from")
	replicateFrom := flag.String("replicate-from", "", "base URL of a primary to replicate from (e.g. http://primary:8080); makes this server a read replica (requires -data-dir)")
	replicaID := flag.String("replica-id", "", "identity in the primary's replica registry (default: hostname; set explicitly when running several replicas per host)")
	replicaLagMax := flag.Int64("replica-lag-max", 0, "replication lag in committed WAL bytes past which /readyz answers 503 (0 = 64 MiB, negative = unbounded)")
	flag.Parse()

	logger := obs.NewLogger()
	if *dataDir != "" && *dbPath != "" {
		logger.Error("-data-dir and -db are mutually exclusive (put the ingested database in the data dir instead)")
		return 2
	}
	if *replicateFrom != "" && *dataDir == "" {
		logger.Error("-replicate-from requires -data-dir (the replica keeps a durable local copy)")
		return 2
	}
	if *feeds && *dataDir == "" {
		logger.Error("-feeds requires -data-dir (feed journals must survive restarts)")
		return 2
	}
	if *feeds && *replicateFrom != "" {
		logger.Error("-feeds is incompatible with -replicate-from (a read replica cannot ingest)")
		return 2
	}
	if *shards < 1 || *shards > index.MaxShards {
		logger.Error("-shards out of range", "shards", *shards, "min", 1, "max", index.MaxShards)
		return 2
	}
	cfg := core.DefaultConfig()
	cfg.Concurrency = *workers
	cfg.Index.Shards = *shards
	// Section 5.3 split evaluations run on background goroutines: ingest
	// latency never pays for the EM fits.
	cfg.Index.AsyncSplit = true
	cfg.Approx = core.ApproxConfig{Enabled: *approx, NLists: *nlists, NProbe: *nprobe}
	opts := server.Options{
		Logger:         logger,
		EnablePprof:    *pprof,
		MaxInFlight:    *maxInFlight,
		QueueTimeout:   *queueTimeout,
		RequestTimeout: *requestTimeout,
		StartUnready:   true,
	}

	// Bind before recovery so orchestrator probes reach us immediately:
	// /healthz says the process lives, /readyz says not yet.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", "addr", *addr, "err", err)
		return 1
	}
	logger.Info("listening", "addr", ln.Addr().String(), "pprof", *pprof)

	var handler atomic.Pointer[http.Handler]
	boot := http.Handler(http.HandlerFunc(recoveringHandler))
	handler.Store(&boot)
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	})}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var srv *server.Server
	var db *core.SharedDB
	var rep *replica.Replica
	var feedSvc *feed.Service
	switch {
	case *replicateFrom != "":
		id := *replicaID
		if id == "" {
			if id, _ = os.Hostname(); id == "" {
				id = "replica"
			}
		}
		rep, err = replica.Open(ctx, replica.Config{
			Primary: *replicateFrom,
			ID:      id,
			Dir:     *dataDir,
			DB:      cfg,
			LagMax:  *replicaLagMax,
			Logger:  logger,
		})
		if err != nil {
			logger.Error("replica bootstrap failed", "primary", *replicateFrom, "err", err)
			return 1
		}
		db = rep.DB()
		logger.Info("replica recovered", "primary", *replicateFrom, "id", id, "pos", db.ReplicaPos().String())
		opts.Replica = rep
		srv = server.NewShared(db, opts)
	case *dataDir != "":
		shared, rec, err := core.OpenDurable(cfg, core.Durability{Dir: *dataDir})
		if err != nil {
			logger.Error("recovery failed", "dir", *dataDir, "err", err)
			return 1
		}
		db = shared
		logger.Info("recovered",
			"dir", *dataDir,
			"snapshot", rec.SnapshotLoaded,
			"wal_logs", rec.ReplayedLogs,
			"wal_records", rec.ReplayedRecords,
			"torn_tail", rec.TornTail,
			"duration_ms", float64(rec.Duration.Nanoseconds())/1e6)
		prim, perr := replica.NewPrimary(shared, replica.PrimaryOptions{})
		if perr != nil {
			logger.Error("replication primary", "err", perr)
			return 1
		}
		defer prim.Close()
		opts.Replication = prim
		if *feeds {
			feedSvc, err = feed.Open(feed.Options{
				Dir: filepath.Join(*dataDir, "feeds"),
				DB:  shared,
			})
			if err != nil {
				logger.Error("feed recovery failed", "dir", filepath.Join(*dataDir, "feeds"), "err", err)
				return 1
			}
			opts.Feeds = feedSvc
			logger.Info("feeds recovered", "feeds", len(feedSvc.Feeds()))
		}
		srv = server.NewShared(shared, opts)
	case *dbPath != "":
		f, err := os.Open(*dbPath)
		if err != nil {
			logger.Error("open database", "err", err)
			return 1
		}
		srv, err = server.NewFromReaderWith(f, cfg, opts)
		f.Close()
		if err != nil {
			logger.Error("load database", "path", *dbPath, "err", err)
			return 1
		}
	default:
		srv = server.NewWith(cfg, opts)
	}
	live := http.Handler(srv)
	handler.Store(&live)
	srv.SetReady(true)
	st := srv.DB().Stats()
	logger.Info("ready", "segments", st.Segments, "ogs", st.OGs, "clusters", st.Clusters, "shards", st.Shards)

	// The replication loop runs alongside the listener; repc stays nil
	// (and its case never fires) on a primary.
	var repc chan error
	if rep != nil {
		repc = make(chan error, 1)
		go func() { repc <- rep.Run(ctx) }()
	}

	select {
	case err := <-errc:
		logger.Error("serve", "err", err)
		return 1
	case err := <-repc:
		if !errors.Is(err, context.Canceled) {
			if errors.Is(err, replica.ErrResyncNeeded) {
				// The RESYNC marker is on disk: exit non-zero so a
				// supervisor restarts us, and the next Open wipes and
				// re-bootstraps.
				logger.Error("replica requires re-bootstrap; restart to repair", "err", err)
				return 1
			}
			logger.Error("replication loop exited", "err", err)
			return 1
		}
		repc = nil // canceled alongside the signal context: graceful shutdown
	case <-ctx.Done():
	}
	// Unregister the handler: a second SIGTERM takes the default
	// disposition and kills the process outright.
	stop()

	srv.SetReady(false)
	logger.Info("shutting down", "grace", grace.String())
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown", "err", err)
	}
	switch {
	case rep != nil:
		// Wait for the replication loop to notice the canceled context so
		// it cannot race the final checkpoint.
		if repc != nil {
			<-repc
		}
		db.QuiesceIndex()
		if err := rep.Close(); err != nil {
			logger.Error("closing replica", "err", err)
			return 1
		}
		logger.Info("replica closed")
	case db != nil:
		// The feed service closes first: it detaches the commit hook,
		// drains the standing-query engine and seals every journal (frames
		// pending an epoch stay journaled and recover on the next boot).
		if feedSvc != nil {
			if err := feedSvc.Close(); err != nil {
				logger.Warn("closing feeds", "err", err)
			}
			logger.Info("feeds closed")
		}
		// Settle in-flight asynchronous splits, then fold the log into a
		// final snapshot so the next boot is a single file load; failure is
		// not fatal — the WAL already has everything.
		db.QuiesceIndex()
		if err := db.Checkpoint(); err != nil {
			logger.Warn("final checkpoint", "err", err)
		}
		if err := db.Close(); err != nil {
			logger.Error("closing database", "err", err)
			return 1
		}
		logger.Info("database closed")
	}
	logger.Info("bye")
	return 0
}

// recoveringHandler answers probes while recovery replays the log: the
// process is alive but not ready, and API requests get a clean 503.
func recoveringHandler(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok"}` + "\n"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = w.Write([]byte(`{"error":{"code":"unavailable","message":"recovering"}}` + "\n"))
}
