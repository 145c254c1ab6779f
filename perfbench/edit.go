package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/align"
)

// editOpts are the edit-stream options: the paper's defaults with
// compositional solving through one shared default-capacity cache.
func editOpts(cache *repro.Cache) repro.Options {
	o := repro.DefaultOptions()
	o.Partition = true
	o.Cache = cache
	return o
}

// editResolves is how many edits, spread evenly over the window, are
// re-solved without a cache after it; every edit must also meet the
// family's closed form (all components shift-aligned, exact cost 0).
const editResolves = 24

// editSetup solves the unedited program cold into a fresh cache.
func editSetup() (*repro.Cache, error) {
	cache := repro.NewCache(0)
	if _, err := repro.AlignSource(editSrc(-1, 0), editOpts(cache)); err != nil {
		return cache, fmt.Errorf("set-up solve: %w", err)
	}
	return cache, nil
}

// runEdit is the edit-stream workload: a closed loop with one caller,
// each call a never-seen one-line edit of the 16-component program
// through one shared cache, so the untouched components are region
// hits and only the edited one is solved. Each chunk of the window
// runs through the cache its own set-up filled.
func runEdit(seed int64, secs time.Duration, trace bool) *Result {
	r := &Result{Correct: true}
	edits := NewGen(seed).Edits(1 << 16)
	if trace {
		cache, err := editSetup()
		if err != nil {
			r.Correct = false
			r.fail(err.Error())
		}
		return traceEdit(r, cache, edits, secs)
	}
	var ops []Op
	var results []*repro.Result
	var cache *repro.Cache
	setup := func() (err error) {
		cache, err = editSetup()
		return err
	}
	per := secs / setups
	setupS, chunks, kb := chunked(r, setup, func(_, _ int, start time.Time) bool {
		return time.Since(start) < per
	}, func() bool {
		i := len(ops)
		if i >= len(edits) {
			return false
		}
		e := edits[i]
		res, lat, err := solveTimed(editSrc(e.Comp, e.Shift), editOpts(cache))
		op := Op{Lat: lat, Programs: 1, Err: checkAnswer(true, res, err, lat)}
		if res != nil {
			op.Key = fmt.Sprint(e)
			op.Shift, op.Approx = res.Cost.Shift, res.Align.Offset.Approx
		}
		ops = append(ops, op)
		results = append(results, res)
		return true
	})
	resolveEdits(ops, results, edits)
	r.tally(ops)
	endToEnd(&r.Metrics, ops, ops, medianRate(ops, chunks), kb, setupS)
	return r
}

// resolveEdits re-solves a spread of the answered edits without a
// cache and fails those whose cached answer differs.
func resolveEdits(ops []Op, results []*repro.Result, edits []Edit) {
	step := max(1, len(ops)/editResolves)
	for i := 0; i < len(ops); i += step {
		if ops[i].Err != "" {
			continue
		}
		e := edits[i]
		want, err := repro.AlignSource(editSrc(e.Comp, e.Shift), repro.DefaultOptions())
		switch {
		case err != nil:
			ops[i].Err = "uncached re-solve failed: " + errClass(err)
		case !sameCost(want.Cost, results[i].Cost):
			ops[i].Err = "cached answer differs from the uncached re-solve"
		}
	}
}

// traceEdit runs each edit untraced through one cache and through the
// traced composition against a second cache set up the same way, and
// checks that both give the same answer. The traced call runs without
// the deadline, so the time its spans add cannot turn an answer into a
// timeout.
func traceEdit(r *Result, cache *repro.Cache, edits []Edit, secs time.Duration) *Result {
	tcache, err := editSetup()
	if err != nil {
		r.Correct = false
		r.fail("set-up solve: " + err.Error())
	}
	t := newTracer()
	r.tracer = t
	m := newLayerMetrics()
	aopts := alignOpts(tcache, true)
	var ops []Op
	var efforts []Effort
	ok := map[int]bool{}
	var untraced, traced []float64
	regions, regHits := 0, 0
	start := time.Now()
	for i := 0; i < len(edits) && time.Since(start) < secs; i++ {
		src := editSrc(edits[i].Comp, edits[i].Shift)
		res, lat, err := solveTimed(src, editOpts(cache))
		ops = append(ops, Op{Lat: lat, Programs: 1, Err: checkAnswer(true, res, err, lat)})

		t.Op(i)
		root := t.Begin("op")
		t0 := time.Now()
		e, terr := tracedCached(context.Background(), t, src, aopts)
		tlat := time.Since(t0)
		t.End(root)
		switch {
		case err == nil && terr != nil:
			r.Correct = false
			r.fail(fmt.Sprintf("traced solve of edit %v failed: %v", edits[i], terr))
		case err == nil && !sameCost(e.Cost, res.Cost):
			r.Correct = false
			r.fail(fmt.Sprintf("traced answer of edit %v differs", edits[i]))
		case err == nil:
			ok[i] = true
			efforts = append(efforts, e)
			untraced = append(untraced, ms(lat))
			traced = append(traced, ms(tlat))
			regions += e.Regions
			regHits += e.RegHits
		}
	}
	traceSummary(r, t, &m, ops, ok, efforts, untraced, traced)
	fillCacheMetrics(&m, tcache)
	if regions > 0 {
		m.set("region.hit_ratio", float64(regHits)/float64(regions), "ratio")
	}
	r.Metrics = m
	return r
}

// fillCacheMetrics sets the cache-tier ratios from the cache's own
// counters: the share of lookups each tier answered, singleflight
// sharing, and lock contention.
func fillCacheMetrics(m *Metrics, c *align.Cache) {
	mHits, mMisses, mShared, _ := c.SourceCounters()
	hits, misses := c.Counters()
	_, shared := c.FlightStats()
	if memo := mHits + mMisses + mShared; memo > 0 {
		m.set("memo.hit_ratio", float64(mHits+mShared)/float64(memo), "ratio")
	}
	if pipe := hits + misses; pipe > 0 {
		m.set("pipeline.hit_ratio", float64(hits)/float64(pipe), "ratio")
		m.set("cache.shared_ratio", float64(shared)/float64(pipe), "ratio")
	}
	m.set("cache.contention", float64(c.Contention()), "count")
}
