package main

// Workload names, used in the metric map below and on the command line.
const (
	convergedRead = "converged-read"
	crackCold     = "crack-cold"
	ingestDurable = "ingest-durable"
)

var workloadNames = []string{convergedRead, crackCold, ingestDurable}

// e2eDef is one end-to-end metric. Gated metrics are the benchmark's
// machine-read result (BENCHMARK.json end_to_end): each must be present
// and non-zero on every workload and repeat within its bound from seed to
// seed. The others are printed in the report only: most apply to one
// workload, error_rate is 0, and count_p99_us on ingest-durable follows
// the host's CPU steal (its spread over ten seeds reached 0.27 on a busy
// 2-vCPU machine), which no bound of at most 0.25 can hold.
type e2eDef struct {
	Name, Unit, Better string
	Gated              bool
}

var e2eMetrics = []e2eDef{
	{"setup_s", "s", "lower", true},                 // load, warm-up and initial checkpoint; median of several set-ups
	{"count_p50_us", "us", "lower", true},           // scalar COUNT round trip, median
	{"count_p99_us", "us", "lower", false},          // scalar COUNT round trip, p99; not gated, see above
	{"qps", "statements/s", "higher", true},         // statements completed per second; window statements count singly
	{"heap_mb", "MB", "lower", true},                // Go heap in use after a GC at the end of the last round, net of the harness's inputs
	{"select_p50_us", "us", "lower", false},         // SELECT round trip, median
	{"select_p99_us", "us", "lower", false},         // SELECT round trip, p99
	{"batch_p50_us", "us", "lower", false},          // one 64-statement window, median
	{"batch_p99_us", "us", "lower", false},          // one 64-statement window, p99
	{"insert_p50_us", "us", "lower", false},         // acknowledged INSERT round trip, median
	{"insert_p99_us", "us", "lower", false},         // acknowledged INSERT round trip, p99
	{"checkpoint_p50_ms", "ms", "lower", false},     // /save delta round trip, including compactions
	{"boot_s", "s", "lower", false},                 // OpenDurable time on the run's data dir; median of three boots
	{"disk_bytes_per_row", "bytes", "lower", false}, // data-dir bytes per live row at the end
	{"error_rate", "ratio", "lower", false},         // failed / attempted
}

// layerDef is one per-layer metric of the traced run, with the
// end-to-end metric it should move and the workloads where it should
// move it. On the other workloads the prediction is no change.
type layerDef struct {
	Name, Unit, Better string
	Moves              string
}

var layerMetrics = []layerDef{
	{"server.self_p50_us", "us", "lower", "count_p50_us on converged-read and crack-cold"},
	{"server.self_ns_per_row", "ns", "lower", "select_p99_us on converged-read"},
	{"server.window_depth_mean", "count", "higher", "batch_p50_us on converged-read"},
	{"sql.parse_p50_us", "us", "lower", "count_p50_us on crack-cold"},
	{"sql.exec_self_p50_us", "us", "lower", "select_p50_us on converged-read"},
	{"shard.count_where_p50_us", "us", "lower", "count_p50_us on converged-read and crack-cold"},
	{"shard.count_where_p99_us", "us", "lower", "count_p99_us on converged-read and crack-cold"},
	{"shard.count_ns_per_row", "ns", "lower", "count_p99_us on converged-read"},
	{"shard.select_where_p50_us", "us", "lower", "select_p50_us on converged-read"},
	{"shard.rows_ns_per_row", "ns", "lower", "select_p99_us on converged-read"},
	{"shard.count_batch_p50_us", "us", "lower", "batch_p50_us on converged-read"},
	{"shard.insert_rows_p50_us", "us", "lower", "insert_p50_us on ingest-durable"},
	{"shard.insert_rows_p99_us", "us", "lower", "insert_p99_us on ingest-durable"},
	{"shard.fanout_per_query", "count", "lower", "count_p50_us on crack-cold (4 shards) against converged-read (1 shard)"},
	{"crackdb.fetched_per_row", "count", "lower", "select_p99_us on converged-read"},
	{"sideways.hit_ratio", "ratio", "higher", "select_p99_us on converged-read"},
	{"core.converged_hold_p50_ns", "ns", "lower", "count_p50_us on converged-read"},
	{"core.batch_hold_p50_us", "us", "lower", "batch_p50_us on converged-read"},
	{"core.index_lookup_ratio", "ratio", "higher", "count_p50_us on converged-read"},
	{"core.crack_hold_p50_us", "us", "lower", "count_p99_us on crack-cold"},
	{"core.crack_hold_p99_us", "us", "lower", "count_p99_us on crack-cold"},
	{"core.cracks_per_query", "count", "lower", "count_p50_us on crack-cold"},
	{"core.tuples_touched_per_query", "count", "lower", "qps on crack-cold"},
	{"core.tuples_moved_per_query", "count", "lower", "qps on crack-cold"},
	{"core.pieces", "count", "lower", "heap_mb on crack-cold"},
	{"tuner.flips", "count", "lower", "count_p99_us on crack-cold"},
	{"durable.wal_append_p50_us", "us", "lower", "insert_p50_us on ingest-durable"},
	{"durable.wal_fsync_p50_us", "us", "lower", "insert_p50_us on ingest-durable"},
	{"durable.wal_fsync_p99_us", "us", "lower", "insert_p99_us on ingest-durable"},
	{"durable.records_per_fsync", "count", "higher", "qps on ingest-durable"},
	{"durable.checkpoint_p50_ms", "ms", "lower", "checkpoint_p50_ms and count_p99_us on ingest-durable"},
	{"durable.bytes_written_per_row", "bytes", "lower", "disk_bytes_per_row on ingest-durable"},
	{"durable.boot_replayed_records", "count", "lower", "boot_s on ingest-durable"},
	{"durable.boot_chain_deltas", "count", "lower", "boot_s on ingest-durable"},
}

// overheadPrefix names the traced run's tracing-overhead metrics: for
// each end-to-end metric, the traced rounds minus the untraced ones.
const overheadPrefix = "trace_overhead."
