package main

import (
	"fmt"
	"time"
)

// layerFigures derives every per-layer metric from the traced run's two
// passes and its counter scrape. A metric whose layer the workload does
// not exercise reads 0.
func layerFigures(lr *layerRun) map[string]figure {
	out := map[string]figure{}
	for _, m := range layerMetrics {
		out[m.Name] = figure{0, "not exercised"}
	}
	us := func(ns []float64) []float64 {
		for i := range ns {
			ns[i] /= float64(time.Microsecond)
		}
		return ns
	}
	put := func(name string, xs []float64, p float64) {
		if len(xs) == 0 {
			return
		}
		q := percentile(xs, p)
		out[name] = figure{q.Value, q.String()}
	}
	ratio := func(name string, num, den float64, note string) {
		if den > 0 {
			out[name] = figure{num / den, fmt.Sprintf("%s: %.0f / %.0f", note, num, den)}
		}
	}

	// In-process spans by statement.
	byStmt := map[int][]span{}
	children := map[int][]interval{}
	for _, s := range lr.inproc.spans {
		byStmt[s.Stmt] = append(byStmt[s.Stmt], s)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	named := func(name string) []span {
		var out []span
		for _, s := range lr.inproc.spans {
			if s.Name == name {
				out = append(out, s)
			}
		}
		return out
	}
	durs := func(ss []span) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = float64(s.dur())
		}
		return out
	}
	// perRow is span time per row for calls that returned at least 1000.
	perRow := func(ss []span) []float64 {
		var out []float64
		for _, s := range ss {
			if s.N >= 1000 {
				out = append(out, float64(s.dur())/float64(s.N))
			}
		}
		return out
	}

	// server: the wire span minus the in-process Parse + ExecStmt of the
	// same statement.
	var selfCount, selfPerRow []float64
	for _, w := range lr.wire.spans {
		o := lr.ops[w.Stmt-1]
		if o.kind != opCount && o.kind != opSelect {
			continue
		}
		var inner int64
		for _, s := range byStmt[w.Stmt] {
			if s.Name == "sql.parse" || s.Name == "sql.exec" {
				inner += s.dur()
			}
		}
		self := float64(w.dur() - inner)
		if o.kind == opCount {
			selfCount = append(selfCount, self/float64(time.Microsecond))
		} else if o.rows >= 1000 {
			selfPerRow = append(selfPerRow, self/float64(o.rows))
		}
	}
	put("server.self_p50_us", selfCount, 50)
	put("server.self_ns_per_row", selfPerRow, 50)
	if h := histogram(lr.metrics, "crackdb_server_window_depth", nil); h.count > 0 {
		out["server.window_depth_mean"] = figure{h.mean(), fmt.Sprintf("%.0f windows", h.count)}
	}

	// sql
	put("sql.parse_p50_us", us(durs(named("sql.parse"))), 50)
	var execSelf []float64
	for _, s := range named("sql.exec") {
		execSelf = append(execSelf, float64(selfTime(interval{s.Start, s.End}, children[s.ID]))/float64(time.Microsecond))
	}
	put("sql.exec_self_p50_us", execSelf, 50)

	// shard
	countWhere := named("shard.count_where")
	put("shard.count_where_p50_us", us(durs(countWhere)), 50)
	put("shard.count_where_p99_us", us(durs(countWhere)), 99)
	put("shard.count_ns_per_row", perRow(countWhere), 50)
	put("shard.select_where_p50_us", us(durs(named("shard.select_where"))), 50)
	put("shard.rows_ns_per_row", perRow(named("shard.rows")), 50)
	put("shard.count_batch_p50_us", us(durs(named("shard.count_batch"))), 50)
	inserts := named("shard.insert_rows")
	put("shard.insert_rows_p50_us", us(durs(inserts)), 50)
	put("shard.insert_rows_p99_us", us(durs(inserts)), 99)
	var routed, selectRows float64
	for _, o := range lr.ops {
		switch o.kind {
		case opCount:
			routed++
		case opSelect:
			routed++
			selectRows += float64(o.rows)
		case opBatch:
			routed += float64(len(o.stmts))
		}
	}
	ratio("shard.fanout_per_query", scalarSum(lr.metrics, "crackdb_shard_routed_queries_total", nil), routed,
		"shard predicates routed / predicates sent")

	// crackdb and sideways
	ratio("crackdb.fetched_per_row", scalarSum(lr.metrics, "crackdb_fetched_tuples_total", nil), selectRows,
		"tuples fetched / SELECT rows returned")
	hits := scalarSum(lr.metrics, "crackdb_sideways_hits_total", nil)
	misses := scalarSum(lr.metrics, "crackdb_sideways_misses_total", nil)
	out["sideways.hit_ratio"] = figure{0, "no projection asked the sideways maps"}
	ratio("sideways.hit_ratio", hits, hits+misses, "projections served / asked")

	// core: kernel hold histograms (bucket quantiles) and /stats counters.
	lat := func(path string) promHist {
		return histogram(lr.metrics, "crackdb_query_latency_ns", map[string]string{"path": path})
	}
	bucket := func(name string, h promHist, p float64, unit time.Duration) {
		if h.count == 0 {
			return
		}
		q := h.quantile(p)
		out[name] = figure{q.Value / float64(unit), "bucket " + q.String()}
	}
	bucket("core.converged_hold_p50_ns", lat("converged"), 50, time.Nanosecond)
	bucket("core.batch_hold_p50_us", lat("batch"), 50, time.Microsecond)
	bucket("core.crack_hold_p50_us", lat("crack"), 50, time.Microsecond)
	bucket("core.crack_hold_p99_us", lat("crack"), 99, time.Microsecond)
	q := lr.stats["queries"]
	ratio("core.index_lookup_ratio", lr.stats["index_lookups"], q, "index lookups / column queries")
	ratio("core.cracks_per_query", lr.stats["cracks"], q, "cracks / column queries")
	ratio("core.tuples_touched_per_query", lr.stats["tuples_touched"], q, "tuples touched / column queries")
	ratio("core.tuples_moved_per_query", lr.stats["tuples_moved"], q, "tuples moved / column queries")
	if q > 0 {
		out["core.pieces"] = figure{lr.stats["pieces"], "pieces across columns and shards at the end"}
	}

	// tuner
	out["tuner.flips"] = figure{lr.flips, "strategy flips summed over /tune"}

	// durable
	if h := histogram(lr.metrics, "crackdb_wal_append_ns", nil); h.count > 0 {
		bucket("durable.wal_append_p50_us", h, 50, time.Microsecond)
		fsync := histogram(lr.metrics, "crackdb_wal_fsync_ns", nil)
		bucket("durable.wal_fsync_p50_us", fsync, 50, time.Microsecond)
		bucket("durable.wal_fsync_p99_us", fsync, 99, time.Microsecond)
		if b := histogram(lr.metrics, "crackdb_wal_batch_records", nil); b.count > 0 {
			out["durable.records_per_fsync"] = figure{b.mean(), fmt.Sprintf("mean of %.0f group commits", b.count)}
		}
		bucket("durable.checkpoint_p50_ms", histogram(lr.metrics, "crackdb_checkpoint_ns", nil), 50, time.Millisecond)
		ratio("durable.bytes_written_per_row", float64(lr.walBytes+lr.ckptBytes), float64(lr.mutations),
			fmt.Sprintf("(%d WAL + %d checkpoint bytes) / mutations", lr.walBytes, lr.ckptBytes))
		out["durable.boot_replayed_records"] = figure{float64(lr.boot.Replayed), "WAL records replayed by OpenDurable after the replay"}
		out["durable.boot_chain_deltas"] = figure{float64(lr.boot.ChainDeltas), "delta elements applied by OpenDurable after the replay"}
	}
	return out
}
