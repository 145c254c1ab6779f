package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/adg"
	"repro/internal/align"
	"repro/internal/build"
	"repro/internal/cost"
	"repro/internal/lang"
	"repro/internal/lp"
)

// deadline is every operation's fixed budget, the same on every commit
// under test. The slowest correct solve of the corpus and the served
// programs takes about 60 ms on a fast moment of a 2-core host and up to
// twice that on a slow one; the failing solves the deadline cuts short
// would run for seconds. 250 ms keeps both sides far from the line, so
// the host's speed does not decide which operations fail.
const deadline = 250 * time.Millisecond

// alignOpts lowers repro.DefaultOptions to the pipeline options, as
// repro.AlignSource does: fixed partitioning with m = 3, replication
// labeling, presolve on, default parallelism and LP budget.
func alignOpts(cache *align.Cache, partition bool) align.Options {
	return align.Options{
		Offset:      align.OffsetOptions{Strategy: align.StrategyFixed, M: 3, Presolve: lp.PresolveAuto},
		Replication: true,
		Cache:       cache,
		Partition:   partition,
	}
}

// replicationRounds is the §6 iteration count AlignContext defaults to.
const replicationRounds = 2

// Effort is what one traced solve reports beside its spans: the answer
// and the effort counters the layers return.
type Effort struct {
	Cost    cost.Breakdown
	Approx  float64
	LP      lp.Stats
	DP      align.DPStats
	LPVars  int
	LPCons  int
	Rounds  int
	Tokens  int
	Nodes   int
	Edges   int
	Regions int
	RegHits int
}

// frontEnd runs lex → parse → sema → ADG build under spans.
func frontEnd(t *Tracer, src string, e *Effort) (*lang.Program, *lang.Info, *adg.Graph, error) {
	var toks []lang.Token
	var err error
	t.Do("lang.lex", func() { toks, err = lang.Lex(src) })
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parse: %w", err)
	}
	e.Tokens += len(toks)
	var prog *lang.Program
	t.Do("lang.parse", func() { prog, err = lang.ParseTokens(toks) })
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parse: %w", err)
	}
	var info *lang.Info
	t.Do("lang.sema", func() { info, err = lang.Analyze(prog) })
	if err != nil {
		return nil, nil, nil, fmt.Errorf("analyze: %w", err)
	}
	var g *adg.Graph
	t.Do("build.adg", func() { g, err = build.Build(info) })
	if err != nil {
		return nil, nil, nil, fmt.Errorf("build ADG: %w", err)
	}
	e.Nodes += len(g.Nodes)
	e.Edges += len(g.Edges)
	return prog, info, g, nil
}

// tracedCold is one uncached AlignSource composed from the layers'
// public calls, each under its own span, exactly as the library
// composes them: the front end, the component partition, then per
// region the §3 DP and the §6 rounds of §5 replication and §4 offsets,
// and finally exact costing. The public solver calls take no context,
// so the deadline is applied afterwards by the caller.
func tracedCold(t *Tracer, src string) (Effort, error) {
	var e Effort
	_, _, g, err := frontEnd(t, src, &e)
	if err != nil {
		return e, err
	}
	var part *adg.Partition
	t.Do("adg.partition", func() { part = adg.PartitionGraph(g) })
	e.Regions = len(part.Regions)
	graphs := []*adg.Graph{g}
	if len(part.Regions) > 1 {
		graphs = graphs[:0]
		for _, r := range part.Regions {
			graphs = append(graphs, r.Graph)
		}
	}
	opts := alignOpts(nil, false)
	for _, rg := range graphs {
		if err := tracedMono(t, rg, opts, &e); err != nil {
			return e, err
		}
	}
	return e, nil
}

// tracedMono mirrors the library's per-region solve.
func tracedMono(t *Tracer, g *adg.Graph, opts align.Options, e *Effort) error {
	var as *align.AxisStrideResult
	var err error
	t.Do("align.axisstride", func() { as, err = align.AxisStrideOpts(g, opts.AxisStride) })
	if err != nil {
		return fmt.Errorf("align: axis/stride phase: %w", err)
	}
	mergeDP(&e.DP, as.Stats)
	var solver *align.OffsetSolver
	t.Do("align.offsets", func() { solver = align.NewOffsetSolver(g, as, opts.Offset) })
	var repl *align.ReplResult
	var off *align.OffsetResult
	var mobile align.MobilePredicate
	for round := 0; round < replicationRounds; round++ {
		t.Do("align.replicate", func() { repl, err = align.Replicate(g, as, mobile) })
		if err != nil {
			return fmt.Errorf("align: replication phase: %w", err)
		}
		e.Rounds++
		t.Do("align.offsets", func() { off, err = solver.Solve(repl) })
		if err != nil {
			return err
		}
		e.LP.Add(off.Stats)
		e.LPVars = max(e.LPVars, off.LPVariables)
		e.LPCons = max(e.LPCons, off.LPConstraints)
		prev := off
		mobile = func(p *adg.Port, t int) bool { return !prev.Offsets[p.ID][t].IsConst() }
	}
	e.Approx += off.Approx
	res := &align.Result{Graph: g, AxisStride: as, Repl: repl, Offset: off}
	t.Do("align.assemble", func() { res.Assignment = res.BuildAssignment() })
	t.Do("cost.exact", func() { e.Cost.Add(cost.Exact(g, res.Assignment)) })
	return nil
}

func mergeDP(d *align.DPStats, o align.DPStats) {
	d.Starts += o.Starts
	d.Configs += o.Configs
	d.Sweeps += o.Sweeps
	d.Evals += o.Evals
}

// tracedCached is one AlignSource through a shared cache composed from
// public calls: the source-memo key and lookup, and on a miss the front
// end, the component partition (an extra call, since the pipeline
// partitions internally) and the cached pipeline, whose tiers and
// region solves sit behind align.AlignContext. The result's solver
// counters sum the counters of every region, cached ones included, so
// they do not say what this call solved and are not reported.
func tracedCached(ctx context.Context, t *Tracer, src string, opts align.Options) (Effort, error) {
	var e Effort
	var key align.SourceKey
	t.Do("memo.key", func() { key, _ = align.SourceKeyOf(src, opts) })
	id := t.Begin("memo.lookup")
	v, hit := opts.Cache.SourceGet(key)
	if hit {
		t.End(id)
		fillAnswer(&e, v.(*repro.Result))
		return e, nil
	}
	v, _, err := opts.Cache.SourceDo(ctx, key, func() (any, error) {
		prog, info, g, err := frontEnd(t, src, &e)
		if err != nil {
			return nil, err
		}
		t.Do("adg.partition", func() { adg.PartitionGraph(g) })
		var ar *align.Result
		t.Do("align.pipeline", func() { ar, err = align.AlignContext(ctx, g, opts) })
		if err != nil {
			return nil, err
		}
		res := &repro.Result{Program: prog, Info: info, Graph: g, Align: ar}
		t.Do("cost.exact", func() { res.Cost = cost.Exact(g, ar.Assignment) })
		return res, nil
	})
	t.End(id)
	if err != nil {
		return e, err
	}
	fillAnswer(&e, v.(*repro.Result))
	return e, nil
}

// fillAnswer copies a library result's answer and region hits.
func fillAnswer(e *Effort, r *repro.Result) {
	e.Cost = r.Cost
	e.Approx = r.Align.Offset.Approx
	e.Regions, e.RegHits = r.Align.Regions, r.Align.RegionHits
}
