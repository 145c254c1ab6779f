package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/cost"
	"repro/internal/lp"
)

// warmPrograms are the cold-corpus set-up: four fixed programs per
// family, solved before each chunk of the timed window so the chunk
// does not pay for first-touch heap growth. Together they take about
// 140 ms on a 2-core host, long enough that one GC pause does not set
// the set-up time.
var warmPrograms = []string{
	fig1Src(60), fig1Src(90), fig1Src(100), fig1Src(120),
	rank4Src(16, 4), rank4Src(20, 6), rank4Src(24, 8), rank4Src(28, 4),
	stencilSrc(80), stencilSrc(100), stencilSrc(160), stencilSrc(200),
	spreadSrc(60, 4), spreadSrc(100, 8), spreadSrc(160, 16), spreadSrc(200, 24),
	transposeSrc(96, 480), transposeSrc(256, 128), transposeSrc(400, 300), transposeSrc(512, 64),
	mixedSrc(60, 20), mixedSrc(100, 50), mixedSrc(150, 40), mixedSrc(180, 80),
}

// setups is how many times a run repeats its set-up; setup_s is the
// median.
const setups = 9

// checkAnswer applies the answer checks every solve must pass: no
// error, within the deadline, and exact cost 0 for a program whose
// closed-form optimum is 0. It returns the failure reason, or "".
func checkAnswer(zeroCost bool, res *repro.Result, err error, lat time.Duration) string {
	switch {
	case err != nil:
		return errClass(err)
	case lat > deadline:
		return "deadline exceeded"
	case zeroCost && res.Cost.Total() != 0:
		return "nonzero exact cost where the optimum is 0"
	}
	return ""
}

// solveTimed is one timed AlignSource under the deadline.
func solveTimed(src string, opts repro.Options) (*repro.Result, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	t0 := time.Now()
	res, err := repro.AlignSourceContext(ctx, src, opts)
	return res, time.Since(t0), err
}

func sameCost(a, b cost.Breakdown) bool {
	return a.General == b.General && a.Shift == b.Shift && a.Broadcast == b.Broadcast
}

// warmUp is the cold-corpus set-up: it solves warmPrograms.
func warmUp() error {
	for _, src := range warmPrograms {
		if _, err := repro.AlignSource(src, repro.DefaultOptions()); err != nil {
			return fmt.Errorf("set-up solve: %w", err)
		}
	}
	return nil
}

// chunk is one stretch of a closed loop's timed window: the
// operations [first, end) it ran and the time they took.
type chunk struct {
	first, end int
	window     time.Duration
}

// chunked runs a closed loop's timed window in `setups` chunks, each
// after its own set-up from a collected heap, so the set-up times sample
// the host across the whole run as the window does. step runs one
// operation and reports false when the inputs run out; more(i, n,
// start) reports whether chunk i, begun at start after n operations,
// runs another. chunked returns the set-up times in seconds, the chunks
// and the KiB allocated within them.
func chunked(r *Result, setup func() error, more func(i, n int, start time.Time) bool, step func() bool) (setupS []float64, chunks []chunk, kb float64) {
	n := 0
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			r.Correct = false
			r.fail(err.Error())
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		alloc := newAllocMeter()
		c := chunk{first: n}
		start := time.Now()
		for more(i, n, start) && step() {
			n++
		}
		c.end, c.window = n, time.Since(start)
		chunks = append(chunks, c)
		kb += alloc.kb()
	}
	return setupS, chunks, kb
}

// window is the chunks' total time.
func window(chunks []chunk) time.Duration {
	var w time.Duration
	for _, c := range chunks {
		w += c.window
	}
	return w
}

// cycleOps is one cycle: the whole corpus, a block of one call per
// family for each fig1 size.
const cycleOps = int(numFamilies) * (fig1Hi - fig1Lo + 1)

// cycleTime is roughly how long one cycle takes on a 2-core host: 13 to
// 17 s, as the host's speed moves. A run does as many whole cycles as
// its --seconds hold, at least one, so the amount of work, and with it
// the failure count, is fixed by --seconds, not by how fast the host
// happens to be.
const cycleTime = 15 * time.Second

// runCold is the cold-corpus workload: a closed loop with one caller,
// each call an uncached AlignSource of a fresh corpus program.
func runCold(seed int64, secs time.Duration, trace bool) *Result {
	r := &Result{Correct: true}
	gen, corpus := NewGen(seed), Corpus()
	var queue []Program
	next := func() Program {
		if len(queue) == 0 {
			queue = gen.Cycle(corpus)
		}
		p := queue[0]
		queue = queue[1:]
		return p
	}
	if trace {
		if err := warmUp(); err != nil {
			r.Correct = false
			r.fail(err.Error())
		}
		return traceCold(r, next, secs)
	}
	total := cycleOps * max(1, int(secs/cycleTime))
	var ops []Op
	setup, chunks, kb := chunked(r, warmUp, func(i, n int, _ time.Time) bool {
		return n < total*(i+1)/setups
	}, func() bool {
		p := next()
		res, lat, err := solveTimed(p.Src, repro.DefaultOptions())
		op := Op{Lat: lat, Programs: 1, Err: checkAnswer(p.Family.ZeroCost(), res, err, lat)}
		if op.Err == "" {
			op.Key, op.Shift, op.Approx = p.Src, res.Cost.Shift, res.Align.Offset.Approx
		}
		ops = append(ops, op)
		return true
	})
	r.tally(ops)
	endToEnd(&r.Metrics, ops, ops, answeredRate(ops, window(chunks)), kb, setup)
	return r
}

// traceCold runs each program untraced, then through the traced
// composition of the layers, and checks that both give the same
// answer. The traced composition has no deadline (the public solver
// calls take no context), so a solve the deadline cut short runs on to
// its own end there — for the dense-tableau defect, lp.ErrBudget.
func traceCold(r *Result, next func() Program, secs time.Duration) *Result {
	t := newTracer()
	r.tracer = t
	m := newLayerMetrics()
	var ops []Op
	var efforts []Effort
	ok := map[int]bool{}
	famOps := map[Family]map[int]bool{}
	var untraced, traced []float64
	budget := 0
	start := time.Now()
	for i := 0; time.Since(start) < secs; i++ {
		p := next()
		res, lat, err := solveTimed(p.Src, repro.DefaultOptions())
		op := Op{Lat: lat, Programs: 1, Err: checkAnswer(p.Family.ZeroCost(), res, err, lat)}
		ops = append(ops, op)

		t.Op(i)
		root := t.Begin("op")
		t0 := time.Now()
		e, terr := tracedCold(t, p.Src)
		tlat := time.Since(t0)
		t.End(root)
		if errors.Is(terr, lp.ErrBudget) {
			budget++
		}
		switch {
		case err == nil && terr != nil:
			r.Correct = false
			r.fail(fmt.Sprintf("traced solve of %s %v failed: %v", p.Family, p.Size, terr))
		case err == nil && !sameCost(e.Cost, res.Cost):
			r.Correct = false
			r.fail(fmt.Sprintf("traced answer of %s %v differs: %v vs %v", p.Family, p.Size, e.Cost, res.Cost))
		case err == nil:
			ok[i] = true
			if famOps[p.Family] == nil {
				famOps[p.Family] = map[int]bool{}
			}
			famOps[p.Family][i] = true
			efforts = append(efforts, e)
			untraced = append(untraced, ms(lat))
			traced = append(traced, ms(tlat))
		}
	}
	traceSummary(r, t, &m, ops, ok, efforts, untraced, traced)
	for f := Family(0); f < numFamilies; f++ {
		if famOps[f] != nil {
			_, share, _ := t.layerStats(famOps[f])
			m.set("offsets.share."+f.String(), share["align.offsets"], "ratio")
		}
	}
	m.set("lp.budget_exhausted", float64(budget), "count")
	r.Metrics = m
	return r
}
