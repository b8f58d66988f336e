package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracedRun measures the per-layer metrics. It sets up once, runs a
// fixed number of operations over HTTP (for the program's own counters,
// response stats and end-to-end latency), then replays as many
// operations in process with spans. A fixed count, not a duration, makes
// every count metric repeat exactly for a given seed.
func tracedRun(e *env, w workload, prov map[string]any) (*result, error) {
	d, _, err := setUp(e, w, 1, prov)
	if err != nil {
		return nil, err
	}
	defer func() {
		w.teardown()
		d.stop()
	}()
	n := traceOps
	if mw, ok := w.(*mineWorkload); ok && mw.hot {
		n = hotTraceOps
	}
	before, err := scrapeAll(d)
	if err != nil {
		return nil, err
	}
	ops := make([]opResult, 0, n)
	failed := 0
	for i := 0; i < n; i++ {
		r, err := w.op(d)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i+1, err)
			continue
		}
		ops = append(ops, r)
	}
	after, err := scrapeAll(d)
	if err != nil {
		return nil, err
	}
	correct := report(w, before, after, n, &failed)
	tr := newTracer()
	rc, err := w.replay(d, tr, n)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if err := tr.write(filepath.Join(e.dir, "spans.json")); err != nil {
		return nil, err
	}
	prov["traced_ops"] = n
	return &result{
		Correct:   correct,
		Attempted: n,
		Failed:    failed,
		Metrics:   layerMetrics(ops, before, after, tr.byOp(), rc),
	}, nil
}

// layerMetrics derives every per-layer metric. Counts come from the
// program's own /v1/metrics deltas and from what the replay observed;
// times are medians over the replayed operations of span self times (or
// durations, for calls without traced children). A layer the workload
// does not exercise reads 0.
func layerMetrics(ops []opResult, before, after series, spans map[int]*opSpans, rc *replayCounts) map[string]metric {
	n := float64(len(ops))
	perOp := func(name string, labels ...string) float64 {
		if n == 0 {
			return 0
		}
		return delta(before, after, name, labels...) / n
	}
	var lat, elapsed, overhead, bytes, patterns, deltas []float64
	for _, o := range ops {
		l := float64(o.latency) / float64(time.Millisecond)
		lat = append(lat, l)
		bytes = append(bytes, float64(o.bytes))
		patterns = append(patterns, float64(o.patterns))
		deltas = append(deltas, float64(o.deltaSize))
		if o.elapsedMs >= 0 {
			elapsed = append(elapsed, o.elapsedMs)
			overhead = append(overhead, l-o.elapsedMs)
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits := delta(before, after, "tpmd_cache_hits_total")
	misses := delta(before, after, "tpmd_cache_misses_total")
	jobRunMs := 1000 * ratio(delta(before, after, "tpmd_job_run_duration_seconds_sum"),
		delta(before, after, "tpmd_job_run_duration_seconds_count"))
	ms := func(f func(*opSpans) int64) float64 { return medianOver(spans, time.Millisecond, f) }
	us := func(f func(*opSpans) int64) float64 { return medianOver(spans, time.Microsecond, f) }
	self := func(name string) func(*opSpans) int64 { return func(o *opSpans) int64 { return o.selfSum(name) } }
	dur := func(name string) func(*opSpans) int64 { return func(o *opSpans) int64 { return o.durSum(name) } }
	longest := func(name string) func(*opSpans) int64 { return func(o *opSpans) int64 { return o.durMax(name) } }
	remoteOnly := func(v float64) float64 {
		if rc.remote {
			return v
		}
		return 0
	}
	candidates := mean(rc.candidates)
	return map[string]metric{
		"api.decode_us":        {us(self("api.decode")), "us"},
		"dataio.parse_ms":      {ms(self("dataio.parse")), "ms"},
		"cache.hit_ratio":      {ratio(hits, hits+misses), "ratio"},
		"cache.do_us":          {us(self("cache.do")), "us"},
		"cache.size_ms":        {ms(self("cache.size")), "ms"},
		"cache.resident_bytes": {after.sum("tpmd_cache_resident_bytes"), "bytes"},

		"server.rows_ms":        {ms(self("server.rows")), "ms"},
		"server.render_ms":      {ms(self("server.render")), "ms"},
		"server.response_bytes": {mean(bytes), "bytes"},
		"server.elapsed_ms":     {median(elapsed), "ms"},
		"server.overhead_ms":    {median(overhead), "ms"},

		"seqdb.encode_ms":      {ms(dur("seqdb.encode")), "ms"},
		"core.mine_ms":         {ms(dur("core.mine")), "ms"},
		"core.nodes":           {perOp("tpmd_miner_nodes_total"), "count"},
		"core.candidate_scans": {perOp("tpmd_miner_candidate_scans_total"), "count"},
		"core.patterns":        {mean(patterns), "count"},

		"shard.shards":            {float64(rc.shards), "count"},
		"shard.skew":              {rc.skew, "ratio"},
		"shard.partition_ms":      {ms(self("shard.partition")), "ms"},
		"shard.mine_ms":           {ms(dur("shard.mine")), "ms"},
		"shard.fanout_ms":         {ms(func(o *opSpans) int64 { return o.lastEndSince("shard.mine", "shard.worker_mine") }), "ms"},
		"shard.shard_mine_ms_max": {ms(longest("shard.worker_mine")), "ms"},
		"shard.shard_mine_ms_sum": {ms(dur("shard.worker_mine")), "ms"},
		"shard.count_ms":          {ms(func(o *opSpans) int64 { return o.wall("shard.worker_count") }), "ms"},
		"shard.merge_self_ms":     {ms(self("shard.mine")), "ms"},
		"shard.merged_patterns":   {candidates, "count"},
		"shard.counted_patterns":  {mean(rc.counted), "count"},
		"shard.useful_ratio":      {ratio(mean(rc.patterns), candidates), "ratio"},

		"remote.encode_ms":    {ms(dur("remote.encode")), "ms"},
		"remote.push_bytes":   {perOp("tpmd_remote_shard_push_bytes_total"), "bytes"},
		"remote.rpc_bytes":    {perOp("tpmd_remote_bytes_total", `op="mine"`) + perOp("tpmd_remote_bytes_total", `op="count"`), "bytes"},
		"remote.rpcs_per_op":  {perOp("tpmd_remote_rpcs_total"), "count"},
		"remote.mine_rpc_ms":  {remoteOnly(ms(longest("shard.worker_mine"))), "ms"},
		"remote.count_rpc_ms": {remoteOnly(ms(longest("shard.worker_count"))), "ms"},

		"persist.log_append_ms":    {ms(dur("persist.log_append")), "ms"},
		"persist.wal_bytes_per_op": {perOp("tpmd_persist_wal_bytes"), "bytes"},
		"persist.fsyncs_per_op":    {perOp("tpmd_persist_fsyncs_total"), "count"},

		"jobs.run_ms":     {jobRunMs, "ms"},
		"jobs.diff_ms":    {ms(dur("jobs.diff")), "ms"},
		"jobs.delta_size": {mean(deltas), "count"},

		"trace.unattributed_ms": {median(lat) - ms(dur("op")), "ms"},
	}
}

// mean is the arithmetic mean, 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
