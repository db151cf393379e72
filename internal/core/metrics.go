package core

import (
	"strgindex/internal/dist"
	"strgindex/internal/obs"
)

// The distance engine owns its eval counter (dist.TotalEvals) and DP-cell
// counter (dist.DPCells); the bridges into the exposition live here
// because core is the package that always links both sides.
func init() {
	obs.Default.CounterFunc("strg_dist_evals_total",
		"sequence distance evaluations (EGED/EGED_M/DTW/LCS/edit/Lp)", nil,
		func() float64 { return float64(dist.TotalEvals()) })
	obs.Default.CounterFunc("strg_dist_dp_cells_total",
		"dynamic-programming cells evaluated by the distance kernels", nil,
		func() float64 { return float64(dist.DPCells()) })
}

// Pipeline instrumentation, registered against the default observability
// registry and exposed by the HTTP server at GET /metrics.
//
//	strg_ingest_seconds          full pipeline time of one segment ingest
//	                             (RAG build, tracking, decompose, index)
//	strg_ingest_segments_total   segments committed to the index
//	strg_ingest_ogs_total        Object Graphs committed to the index
//	strg_query_seconds{kind}     end-to-end query time inside the database,
//	                             by query kind
var (
	ingestSeconds = obs.Default.Histogram("strg_ingest_seconds",
		"segment ingest pipeline duration in seconds", nil, nil)
	ingestSegments = obs.Default.Counter("strg_ingest_segments_total",
		"segments committed to the index", nil)
	ingestOGs = obs.Default.Counter("strg_ingest_ogs_total",
		"object graphs committed to the index", nil)
	queryKNNSeconds = obs.Default.Histogram("strg_query_seconds",
		"database query duration in seconds, by kind", obs.Labels{"kind": "knn"}, nil)
	queryKNNExactSeconds = obs.Default.Histogram("strg_query_seconds",
		"database query duration in seconds, by kind", obs.Labels{"kind": "knn_exact"}, nil)
	queryRangeSeconds = obs.Default.Histogram("strg_query_seconds",
		"database query duration in seconds, by kind", obs.Labels{"kind": "range"}, nil)
	querySelectSeconds = obs.Default.Histogram("strg_query_seconds",
		"database query duration in seconds, by kind", obs.Labels{"kind": "select"}, nil)
	queryComposedSeconds = obs.Default.Histogram("strg_query_seconds",
		"database query duration in seconds, by kind", obs.Labels{"kind": "composed"}, nil)
)

// Durability instrumentation (see durable.go and persist.go).
//
//	strg_snapshot_saves_total              snapshot files durably written
//	strg_snapshot_save_failures_total      snapshot writes that failed
//	                                       (the previous snapshot + WAL
//	                                       chain stays authoritative)
//	strg_snapshot_checksum_failures_total  snapshot loads rejected by the
//	                                       container checksum
//	strg_wal_rotations_total               WAL rotations (a new log opened
//	                                       by a snapshot cycle)
//	strg_recovery_seconds                  duration of crash recovery
//	                                       (snapshot load + WAL replay)
//	strg_recovery_replayed_total           WAL records re-applied during
//	                                       recovery
var (
	snapshotSaves = obs.Default.Counter("strg_snapshot_saves_total",
		"snapshot files durably written", nil)
	snapshotSaveFailures = obs.Default.Counter("strg_snapshot_save_failures_total",
		"snapshot writes that failed, leaving the WAL chain authoritative", nil)
	snapshotChecksumFailures = obs.Default.Counter("strg_snapshot_checksum_failures_total",
		"snapshot loads rejected by the container checksum", nil)
	walRotations = obs.Default.Counter("strg_wal_rotations_total",
		"write-ahead log rotations", nil)
	recoverySeconds = obs.Default.Histogram("strg_recovery_seconds",
		"crash recovery duration in seconds (snapshot load + WAL replay)", nil, nil)
	recoveryReplayed = obs.Default.Counter("strg_recovery_replayed_total",
		"write-ahead log records re-applied during recovery", nil)
)
