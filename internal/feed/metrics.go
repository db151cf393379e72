package feed

import "strgindex/internal/obs"

// Live-feed and standing-query instrumentation, registered against the
// process-global registry and exposed by the HTTP server at GET /metrics.
//
//	strg_feed_open                       live feeds currently open
//	strg_feed_frames_total               frames accepted across all feeds
//	strg_feed_duplicate_frames_total     idempotent retry frames skipped
//	strg_feed_flushes_total              epochs committed to the database
//	strg_feed_append_seconds             journal fsync + preview time per batch
//	strg_feed_subscriptions              standing queries currently registered
//	strg_feed_events_total               events appended to subscriber rings
//	strg_feed_events_dropped_total       ring evictions (slow consumers)
//	strg_feed_delta_queue                work items waiting for the dispatcher
//	strg_feed_dispatch_seconds           evaluation time of one commit delta
//	strg_feed_dispatch_candidates_total  (subscription, OG) pairs the index handed to evaluation
//	strg_feed_dispatch_matched_total     candidate pairs whose where tree accepted the OG
//	strg_feed_dispatch_dp_abandoned_total  k-NN evaluations the kth distance cut short
//	strg_feed_reconciles_total           periodic full k-NN re-evaluations
//	strg_feed_reconcile_seconds          time of one such re-evaluation (inside dispatch)
//	strg_feed_reconcile_diffs_total      corrections those re-evaluations found
var (
	feedsOpen = obs.Default.Gauge("strg_feed_open",
		"live feeds currently open", nil)
	framesTotal = obs.Default.Counter("strg_feed_frames_total",
		"frames accepted across all live feeds", nil)
	framesDuplicate = obs.Default.Counter("strg_feed_duplicate_frames_total",
		"duplicate frames skipped (idempotent client retries)", nil)
	flushesTotal = obs.Default.Counter("strg_feed_flushes_total",
		"feed epochs committed to the database", nil)
	appendSeconds = obs.Default.Histogram("strg_feed_append_seconds",
		"journal append + preview time of one frame batch in seconds", nil, nil)
	subsActive = obs.Default.Gauge("strg_feed_subscriptions",
		"standing queries currently registered", nil)
	eventsTotal = obs.Default.Counter("strg_feed_events_total",
		"standing-query events appended to subscriber rings", nil)
	eventsDropped = obs.Default.Counter("strg_feed_events_dropped_total",
		"events evicted from subscriber rings before delivery (slow consumers)", nil)
	deltaQueue = obs.Default.Gauge("strg_feed_delta_queue",
		"commit deltas and registrations waiting for the dispatcher", nil)
	dispatchSeconds = obs.Default.Histogram("strg_feed_dispatch_seconds",
		"time to evaluate one commit delta against the subscription index in seconds, reconciles included", nil, nil)
	dispatchCandidates = obs.Default.Counter("strg_feed_dispatch_candidates_total",
		"(subscription, OG) pairs evaluated: subscription-index hits plus the always-evaluate list", nil)
	dispatchMatched = obs.Default.Counter("strg_feed_dispatch_matched_total",
		"candidate pairs whose where tree accepted the OG (vacuously for pure-similarity subscriptions)", nil)
	dispatchAbandoned = obs.Default.Counter("strg_feed_dispatch_dp_abandoned_total",
		"standing k-NN distance evaluations abandoned at the kth-member bound", nil)
	reconcileSeconds = obs.Default.Histogram("strg_feed_reconcile_seconds",
		"time of one periodic full k-NN re-evaluation in seconds (a share of strg_feed_dispatch_seconds)", nil, nil)
	reconcilesTotal = obs.Default.Counter("strg_feed_reconciles_total",
		"periodic full re-evaluations of standing k-NN queries", nil)
	reconcileDiffs = obs.Default.Counter("strg_feed_reconcile_diffs_total",
		"membership corrections found by periodic k-NN re-evaluation", nil)
)
