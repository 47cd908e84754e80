package obs

// The metric-name catalog. Every metric the repo exports is declared here —
// name, kind, label keys, and help text — and the registry refuses names it
// does not know (Counter/Gauge/Histogram panic on an uncataloged name). That
// single chokepoint is what keeps docs/OBSERVABILITY.md, the /metrics
// scrape, and the CI grep ("no flor_* string literals outside this package")
// honest: a metric cannot exist without a catalog row, and a catalog row
// cannot exist without documentation (docs_test.go checks every catalog
// name appears in docs/OBSERVABILITY.md, and every flor_* name the docs
// mention is a catalog row).

// Store-layer metric names (internal/store).
const (
	MStoreChunkDedupHits     = "flor_store_chunk_dedup_hits_total"
	MStoreChunksWritten      = "flor_store_chunks_written_total"
	MStoreChunkBytesWritten  = "flor_store_chunk_bytes_written_total"
	MStoreShardAppendSeconds = "flor_store_shard_append_seconds"
	MStoreFetchBytes         = "flor_store_fetch_bytes_total"
	MStoreFetchFrames        = "flor_store_fetch_frames_total"
	MStoreGCPasses           = "flor_store_gc_passes_total"
	MStoreGCMarkedChunks     = "flor_store_gc_marked_chunks_total"
	MStoreGCDeadChunks       = "flor_store_gc_dead_chunks_total"
	MStoreGCRewrittenShards  = "flor_store_gc_rewritten_shards_total"
	MStoreGCTombstonedPacks  = "flor_store_gc_tombstoned_packs_total"
	MStoreGCDeletedPacks     = "flor_store_gc_deleted_packs_total"
)

// Remote chunk-cache tier metric names (internal/store/cachetier).
const (
	MCacheTierHitBytes          = "flor_cachetier_hit_bytes_total"
	MCacheTierMissBytes         = "flor_cachetier_miss_bytes_total"
	MCacheTierSingleflightBytes = "flor_cachetier_singleflight_bytes_total"
	MCacheTierEvictions         = "flor_cachetier_evictions_total"
	MCacheTierBytes             = "flor_cachetier_bytes"
	MCacheTierEntries           = "flor_cachetier_entries"
)

// Scheduler metric names (internal/sched).
const (
	MSchedSlotAcquires    = "flor_sched_slot_acquires_total"
	MSchedSlotWaits       = "flor_sched_slot_waits_total"
	MSchedSlotWaitSeconds = "flor_sched_slot_wait_seconds"
	MSchedSlotsInUse      = "flor_sched_slots_in_use"
	MSchedStealAttempts   = "flor_sched_steal_attempts_total"
	MSchedLeaseSplits     = "flor_sched_lease_splits_total"
)

// Replay metric names (internal/replay, internal/backmat).
const (
	MReplayReplays             = "flor_replay_replays_total"
	MReplayIterations          = "flor_replay_iterations_total"
	MReplayRestoreNs           = "flor_replay_restore_ns_total"
	MReplayWorkNs              = "flor_replay_work_ns_total"
	MReplayWorkerBusyNs        = "flor_replay_worker_busy_ns_total"
	MReplayRestoredCheckpoints = "flor_replay_restored_checkpoints_total"
	MReplayRestoredBytes       = "flor_replay_restored_bytes_total"
	MReplayPayloadCacheHits    = "flor_replay_payload_cache_hits_total"
	MReplayPayloadCacheMisses  = "flor_replay_payload_cache_misses_total"
	MReplayPayloadCacheAdmits  = "flor_replay_payload_cache_admits_total"
)

// Serving metric names (internal/serve, flord).
const (
	MServeQueries        = "flor_serve_queries_total"
	MServeRejected       = "flor_serve_rejected_total"
	MServeQueueTimeouts  = "flor_serve_queue_timeouts_total"
	MServeErrors         = "flor_serve_errors_total"
	MServeQueueDepth     = "flor_serve_queue_depth"
	MServeInflight       = "flor_serve_inflight"
	MServeQuerySeconds   = "flor_serve_query_seconds"
	MServeRequestSeconds = "flor_serve_request_seconds"
	MServeStoreEvictions = "flor_serve_store_evictions_total"
	MServeStoreOpen      = "flor_serve_store_open"
	MServeDraining       = "flor_serve_draining"
	MServeTracesDropped  = "flor_serve_traces_dropped_total"
	MServeSlowQueries    = "flor_serve_slow_queries_total"
)

// Observability-infrastructure metric names (internal/obs itself: the
// durable trace store and the background-task recorder).
const (
	MObsTraceStoreAppends    = "flor_obs_tracestore_appends_total"
	MObsTraceStoreSampledOut = "flor_obs_tracestore_sampled_out_total"
	MObsTraceStorePruned     = "flor_obs_tracestore_pruned_segments_total"
	MObsTraceStoreBytes      = "flor_obs_tracestore_bytes"
	MObsTaskRuns             = "flor_obs_task_runs_total"
	MObsTaskSeconds          = "flor_obs_task_seconds"
)

// Kind is a metric's type in the Prometheus sense.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// Def is one catalog row: a metric's identity and documentation.
type Def struct {
	Name string
	Kind Kind
	// Labels lists the label keys this metric is exported with (empty for
	// unlabeled metrics). Informational: the registry does not enforce it,
	// the docs test and the catalog doc render it.
	Labels []string
	Help   string
}

// Catalog enumerates every exported metric in scrape order. /metrics renders
// families in this order, so scrapes diff cleanly across versions.
var Catalog = []Def{
	// store
	{MStoreChunkDedupHits, KindCounter, nil, "Chunk writes elided because the chunk pool already held the content."},
	{MStoreChunksWritten, KindCounter, nil, "Fresh chunks appended to packs."},
	{MStoreChunkBytesWritten, KindCounter, nil, "Encoded bytes appended to packs."},
	{MStoreShardAppendSeconds, KindHistogram, nil, "Latency of appending one checkpoint's fresh frames to its pack."},
	{MStoreFetchBytes, KindCounter, []string{"tier"}, "Encoded pack bytes served to restores, by fetch tier (scatter|ranged|cache|remote|cache-tier|singleflight; cache counts logical bytes skipped via payload-cache hits)."},
	{MStoreFetchFrames, KindCounter, []string{"tier"}, "Chunk frames served to restores, by fetch tier (scatter|ranged|cache|remote|cache-tier|singleflight)."},
	{MStoreGCPasses, KindCounter, nil, "Chunk-reclaiming GC passes."},
	{MStoreGCMarkedChunks, KindCounter, nil, "Chunks marked live during GC mark phases."},
	{MStoreGCDeadChunks, KindCounter, nil, "Superseded chunks compacted out of packs."},
	{MStoreGCRewrittenShards, KindCounter, nil, "Packs rewritten to a new generation by compaction."},
	{MStoreGCTombstonedPacks, KindCounter, nil, "Replaced pack generations scheduled as grace-period tombstones."},
	{MStoreGCDeletedPacks, KindCounter, nil, "Tombstoned pack generations deleted after their grace period."},
	// cache tier (remote-backed stores)
	{MCacheTierHitBytes, KindCounter, nil, "Extent bytes the remote chunk-cache tier served locally."},
	{MCacheTierMissBytes, KindCounter, nil, "Extent bytes the remote chunk-cache tier fetched from the object store."},
	{MCacheTierSingleflightBytes, KindCounter, nil, "Extent bytes served by waiting on another reader's in-flight fetch of the same extent (deduped GETs)."},
	{MCacheTierEvictions, KindCounter, nil, "Extents evicted from the remote chunk-cache tier to stay within budget."},
	{MCacheTierBytes, KindGauge, nil, "Extent bytes currently resident in the remote chunk-cache tier."},
	{MCacheTierEntries, KindGauge, nil, "Extents currently resident in the remote chunk-cache tier."},
	// sched
	{MSchedSlotAcquires, KindCounter, nil, "Slot acquisitions from the shared worker pool."},
	{MSchedSlotWaits, KindCounter, nil, "Slot acquisitions that had to queue."},
	{MSchedSlotWaitSeconds, KindHistogram, nil, "Time slot acquisitions spent queued."},
	{MSchedSlotsInUse, KindGauge, nil, "Worker-pool slots currently held."},
	{MSchedStealAttempts, KindCounter, nil, "Steal attempts against the lease executor (profitable or not)."},
	{MSchedLeaseSplits, KindCounter, nil, "Leases split by a profitable steal."},
	// replay
	{MReplayReplays, KindCounter, nil, "Completed replays."},
	{MReplayIterations, KindCounter, nil, "Main-loop iterations executed in replay work phases."},
	{MReplayRestoreNs, KindCounter, nil, "Nanoseconds replay workers spent loading checkpointed state that statements read."},
	{MReplayWorkNs, KindCounter, nil, "Nanoseconds replay workers spent in work phases."},
	{MReplayWorkerBusyNs, KindCounter, nil, "Nanoseconds replay workers were busy (setup + init + work)."},
	{MReplayRestoredCheckpoints, KindCounter, nil, "Loop executions replay workers skipped by binding their checkpoint (skips, not loads)."},
	{MReplayRestoredBytes, KindCounter, nil, "Logical bytes of the checkpoint sections replay workers actually loaded."},
	{MReplayPayloadCacheHits, KindCounter, nil, "Decoded-payload cache hits (content served without decoding)."},
	{MReplayPayloadCacheMisses, KindCounter, nil, "Decoded-payload cache misses (content decoded)."},
	{MReplayPayloadCacheAdmits, KindCounter, nil, "Payloads admitted to the cache on their second touch."},
	// serve
	{MServeQueries, KindCounter, []string{"run", "kind"}, "Queries completed successfully, by run and kind (replay|sample)."},
	{MServeRejected, KindCounter, []string{"run"}, "Queries rejected because the run's wait queue was full (429)."},
	{MServeQueueTimeouts, KindCounter, []string{"run"}, "Queries that timed out waiting for admission or worker slots (504)."},
	{MServeErrors, KindCounter, []string{"run"}, "Queries that failed while executing (500)."},
	{MServeQueueDepth, KindGauge, []string{"run"}, "Queries currently waiting for admission."},
	{MServeInflight, KindGauge, []string{"run"}, "Queries currently executing."},
	{MServeQuerySeconds, KindHistogram, []string{"kind"}, "End-to-end query latency through the serving path, by kind."},
	{MServeRequestSeconds, KindHistogram, []string{"route"}, "HTTP request latency, by route pattern."},
	{MServeStoreEvictions, KindCounter, nil, "Open-store LRU evictions."},
	{MServeStoreOpen, KindGauge, nil, "Stores currently resident in the open-store LRU."},
	{MServeDraining, KindGauge, nil, "1 while a graceful drain is in progress, else 0."},
	{MServeTracesDropped, KindCounter, []string{"run"}, "Query traces evicted from a run's in-memory trace ring by newer queries."},
	{MServeSlowQueries, KindCounter, []string{"run"}, "Queries slower than the configured slow-query threshold."},
	// obs infrastructure
	{MObsTraceStoreAppends, KindCounter, nil, "Traces persisted to the durable trace store."},
	{MObsTraceStoreSampledOut, KindCounter, nil, "Traces dropped by head sampling before reaching the trace store."},
	{MObsTraceStorePruned, KindCounter, nil, "Trace-store segments pruned by size or age retention."},
	{MObsTraceStoreBytes, KindGauge, nil, "Bytes currently held by the trace store's segments."},
	{MObsTaskRuns, KindCounter, []string{"task"}, "Completed background tasks (GC passes), by task name."},
	{MObsTaskSeconds, KindHistogram, []string{"task"}, "Background-task latency, by task name."},
}

var catalogByName = func() map[string]Def {
	m := make(map[string]Def, len(Catalog))
	for _, d := range Catalog {
		if _, dup := m[d.Name]; dup {
			panic("obs: duplicate catalog name " + d.Name)
		}
		m[d.Name] = d
	}
	return m
}()

// Lookup returns the catalog row for name.
func Lookup(name string) (Def, bool) {
	d, ok := catalogByName[name]
	return d, ok
}
