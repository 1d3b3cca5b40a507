package main

// metricDef names a per-layer metric and its unit.
type metricDef struct{ name, unit string }

// layerMetrics are the per-layer metrics every workload reports; a layer
// a workload does not run reads 0.
var layerMetrics = []metricDef{
	{"cuda.plain_s", "s"},
	{"cuda.ns_per_elem", "ns"},
	{"cuda.sim_ms", "ms"},
	{"cuda.run_self_s", "s"},
	{"um.faults", "count"},
	{"um.migrated_mb", "MiB"},
	{"trace.access_calls", "count"},
	{"trace.range_calls", "count"},
	{"trace.launches", "count"},
	{"trace.drain_points_s", "s"},
	{"trace.overhead_x", "x"},
	{"record.batches", "count"},
	{"record.records", "count"},
	{"record.elems_per_record", "count"},
	{"record.self_s", "s"},
	{"shadow.apply_s", "s"},
	{"shadow.lookups", "count"},
	{"shadow.lookups_per_record", "ratio"},
	{"shadow.untracked", "count"},
	{"heatmap.apply_s", "s"},
	{"pattern.apply_s", "s"},
	{"pattern.rows", "count"},
	{"wire.encode_s", "s"},
	{"wire.decode_s", "s"},
	{"wire.bytes_per_record", "B/record"},
	{"wire.stream_mb", "MiB"},
	{"agg.batches", "count"},
	{"agg.records", "count"},
	{"agg.queue_stalls", "count"},
	{"agg.snapshot_builds", "count"},
	{"agg.snapshot_hit_ratio", "ratio"},
	{"diag.report_s", "s"},
	{"diag.diagnostics", "count"},
	{"diag.report_kb", "KiB"},
	{"whatif.analyze_s", "s"},
	{"bench.poll_late_ms_max", "ms"},
	{"bench.tracing_overhead_s", "s"},
}

// diagSpans are the spans that make up diag.report_s.
var diagSpans = []string{"diag.diagnostic", "diag.heatmap", "diag.patterns", "diag.json", "diag.report"}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerValues derives one round's per-layer metrics from the traced
// child's spans and counters, the untraced child's run time and the
// uninstrumented baseline's (plain is zero when the workload has none).
func layerValues(w *workload, traced, untraced, plain childResult) map[string]float64 {
	sp, v := traced.Spans, traced.Values
	out := map[string]float64{}
	for name, x := range v {
		out[name] = x // counters named after their metric pass through
	}

	out["shadow.apply_s"] = sumSeconds(sp, "shadow.apply")
	out["heatmap.apply_s"] = sumSeconds(sp, "heatmap.apply")
	out["pattern.apply_s"] = sumSeconds(sp, "pattern.apply")
	out["shadow.lookups_per_record"] = ratio(v["shadow.lookups"], v["replay.records"])
	out["wire.encode_s"] = sumSeconds(sp, "wire.encode")
	out["wire.decode_s"] = sumSeconds(sp, "wire.decode")
	out["wire.bytes_per_record"] = ratio(v["wire.bytes"], v["replay.records"])
	out["wire.stream_mb"] = v["wire.bytes"] / (1 << 20)
	out["diag.report_s"] = sumSeconds(sp, diagSpans...)
	out["diag.diagnostics"] = float64(countSpans(sp, "diag.diagnostic") + countSpans(sp, "diag.report"))
	out["diag.report_kb"] = v["report_bytes"] / 1024
	out["whatif.analyze_s"] = sumSeconds(sp, "whatif.analyze")
	out["bench.poll_late_ms_max"] = untraced.Values["poll_late_ms_max"]
	out["bench.tracing_overhead_s"] = traced.Seconds - untraced.Seconds

	if id := firstSpan(sp, "app.run"); id != 0 {
		out["cuda.run_self_s"] = selfSeconds(sp, id)
		out["trace.drain_points_s"] = sumSeconds(sp, "trace.launch", "trace.transfer", "trace.free", "trace.alloc")
		out["record.elems_per_record"] = ratio(v["elems"], v["record.records"])
	}
	if w.plain != nil {
		out["cuda.plain_s"] = plain.Seconds
		out["cuda.ns_per_elem"] = ratio(plain.Seconds*1e9, v["elems"])
		out["trace.overhead_x"] = ratio(untraced.Seconds, plain.Seconds)
		out["record.self_s"] = residual(untraced.Seconds, plain.Seconds,
			out["shadow.apply_s"], out["heatmap.apply_s"], out["pattern.apply_s"],
			out["diag.report_s"], out["whatif.analyze_s"])
	}
	return out
}
