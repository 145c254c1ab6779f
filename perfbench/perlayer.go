package main

import (
	"time"
)

// perLayer lists every per-layer metric with its unit, in print order.
// A traced run prints all of them; a layer the workload does not reach
// reads 0.
var perLayer = [][2]string{
	{"lang.lex_ms", "ms"}, {"lang.parse_ms", "ms"}, {"lang.sema_ms", "ms"}, {"lang.tokens_per_s", "1/s"},
	{"build.adg_ms", "ms"}, {"adg.partition_ms", "ms"}, {"adg.nodes", "count"}, {"adg.edges", "count"}, {"adg.regions", "count"},
	{"axisstride.self_ms", "ms"}, {"dp.evals", "count"}, {"dp.sweeps", "count"}, {"dp.configs", "count"},
	{"replicate.self_ms", "ms"}, {"replicate.rounds", "count"},
	{"offsets.self_ms", "ms"}, {"offsets.share", "ratio"},
	{"offsets.share.fig1", "ratio"}, {"offsets.share.rank4-dp", "ratio"}, {"offsets.share.stencil", "ratio"},
	{"offsets.share.spreadloop", "ratio"}, {"offsets.share.transpose", "ratio"}, {"offsets.share.mixed", "ratio"},
	{"offsets.lp_vars", "count"}, {"offsets.lp_cons", "count"},
	{"lp.pivots", "count"}, {"lp.solves", "count"}, {"lp.warm_solves", "count"}, {"lp.sparse_solves", "count"},
	{"lp.net_solves", "count"}, {"lp.refactors", "count"}, {"lp.phase1_ms", "ms"}, {"lp.phase2_ms", "ms"},
	{"lp.presolve_fixed", "count"}, {"lp.presolve_contracted", "count"}, {"lp.blocks", "count"},
	{"lp.budget_exhausted", "count"},
	{"cost.exact_ms", "ms"},
	{"pipeline.align_ms", "ms"},
	{"memo.key_ms", "ms"}, {"memo.hit_ratio", "ratio"}, {"pipeline.hit_ratio", "ratio"}, {"cache.miss_ratio", "ratio"},
	{"region.hit_ratio", "ratio"}, {"cache.shared_ratio", "ratio"}, {"cache.contention", "count"},
	{"service.handler_ms", "ms"}, {"service.server_ms", "ms"}, {"http.overhead_ms", "ms"},
	{"sched.queue_depth", "count"}, {"sched.busy_frac", "ratio"}, {"quota.throttled", "count"}, {"gen.lag_ms", "ms"},
	{"failed_frac", "ratio"}, {"trace.overhead_frac", "ratio"}, {"trace.unattributed_frac", "ratio"},
}

// newLayerMetrics returns the per-layer metric set, all zero.
func newLayerMetrics() Metrics {
	var m Metrics
	for _, p := range perLayer {
		m.set(p[0], 0, p[1])
	}
	return m
}

// spanMetric maps span names to the self-time metrics they feed.
var spanMetric = map[string]string{
	"lang.lex": "lang.lex_ms", "lang.parse": "lang.parse_ms", "lang.sema": "lang.sema_ms",
	"build.adg": "build.adg_ms", "adg.partition": "adg.partition_ms",
	"align.axisstride": "axisstride.self_ms", "align.replicate": "replicate.self_ms",
	"align.offsets": "offsets.self_ms", "cost.exact": "cost.exact_ms",
	"align.pipeline": "pipeline.align_ms", "memo.key": "memo.key_ms",
}

// fillSpans sets the self-time metrics from the tracer over the
// operations in ops, and the share of operation time no layer span
// covers.
func fillSpans(m *Metrics, t *Tracer, ops map[int]bool) {
	med, share, rootShare := t.layerStats(ops)
	for span, metric := range spanMetric {
		m.set(metric, med[span], "ms")
	}
	m.set("offsets.share", share["align.offsets"], "ratio")
	m.set("trace.unattributed_frac", rootShare, "ratio")
}

// traceSummary tallies the operations of a closed-loop traced run and
// sets the metrics it shares with every such run: self times, effort
// counters, the failed share, and the tracing overhead (median traced
// over median untraced operation time, on the operations both
// answered).
func traceSummary(r *Result, t *Tracer, m *Metrics, ops []Op, ok map[int]bool, efforts []Effort, untraced, traced []float64) {
	var lexTime time.Duration
	for _, s := range t.spans {
		if s.Name == "lang.lex" && ok[s.Op] {
			lexTime += time.Duration(s.End - s.Start)
		}
	}
	r.tally(ops)
	fillSpans(m, t, ok)
	fillEffortMetrics(m, efforts, lexTime)
	m.set("failed_frac", float64(r.Failed)/float64(len(ops)), "ratio")
	m.set("trace.overhead_frac", median(traced)/median(untraced)-1, "ratio")
}

// fillEffortMetrics sets the per-operation means of the effort counters
// the layers returned.
func fillEffortMetrics(m *Metrics, es []Effort, lexTime time.Duration) {
	if len(es) == 0 {
		return
	}
	var sum Effort
	for _, e := range es {
		sum.Tokens += e.Tokens
		sum.Nodes += e.Nodes
		sum.Edges += e.Edges
		sum.Regions += e.Regions
		sum.Rounds += e.Rounds
		sum.LPVars += e.LPVars
		sum.LPCons += e.LPCons
		sum.LP.Add(e.LP)
		mergeDP(&sum.DP, e.DP)
	}
	n := float64(len(es))
	if lexTime > 0 {
		m.set("lang.tokens_per_s", float64(sum.Tokens)/lexTime.Seconds(), "1/s")
	}
	m.set("adg.nodes", float64(sum.Nodes)/n, "count")
	m.set("adg.edges", float64(sum.Edges)/n, "count")
	m.set("adg.regions", float64(sum.Regions)/n, "count")
	m.set("dp.evals", float64(sum.DP.Evals)/n, "count")
	m.set("dp.sweeps", float64(sum.DP.Sweeps)/n, "count")
	m.set("dp.configs", float64(sum.DP.Configs)/n, "count")
	m.set("replicate.rounds", float64(sum.Rounds)/n, "count")
	m.set("offsets.lp_vars", float64(sum.LPVars)/n, "count")
	m.set("offsets.lp_cons", float64(sum.LPCons)/n, "count")
	m.set("lp.pivots", float64(sum.LP.Pivots)/n, "count")
	m.set("lp.solves", float64(sum.LP.Solves)/n, "count")
	m.set("lp.warm_solves", float64(sum.LP.WarmSolves)/n, "count")
	m.set("lp.sparse_solves", float64(sum.LP.SparseSolves)/n, "count")
	m.set("lp.net_solves", float64(sum.LP.NetSolves)/n, "count")
	m.set("lp.refactors", float64(sum.LP.Refactors)/n, "count")
	m.set("lp.phase1_ms", ms(sum.LP.Phase1)/n, "ms")
	m.set("lp.phase2_ms", ms(sum.LP.Phase2)/n, "ms")
	m.set("lp.presolve_fixed", float64(sum.LP.PresolveFixed)/n, "count")
	m.set("lp.presolve_contracted", float64(sum.LP.PresolveContracted)/n, "count")
	m.set("lp.blocks", float64(sum.LP.Blocks)/n, "count")
}
