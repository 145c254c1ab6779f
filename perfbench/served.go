package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/align"
	"repro/internal/cost"
	"repro/internal/service"
)

// The served-zipf traffic picks from a pool of poolSize programs,
// several times the server's default cache capacity, with Zipf skew
// zipfS over the pool's order. A pick is sent as its exact source, as a
// token-distinct equivalent, or replaced by a never-seen program. Every
// batchEvery-th request is a batch of batchSize picks. The skew and the
// form shares are assumptions (no trace of real traffic exists): most
// requests repeat a popular program, and a tenth brings new work to the
// LP.
const (
	poolSize   = 3 * align.DefaultCacheCap
	zipfS      = 1.3
	batchEvery = 7
	batchSize  = 4
	// maxConns is the client's connection limit.
	maxConns = 2
	// maxOutstanding bounds the requests in flight; an arrival beyond
	// it fails at once as backlog overflow.
	maxOutstanding = 4096
	// warmTop is how many of the hottest pool programs set-up sends.
	warmTop = align.DefaultCacheCap
)

// The traffic comes in rounds of roundReqs requests and roundPicks
// picks. A round's picks are a fixed multiset: roundExact exact sources
// (75%) and roundEquiv equivalents (15%), each spread over the pool by
// Zipf weight with largest remainders, and roundNew never-seen programs
// (10%). The run's seed shuffles their order and draws the
// equivalents' rewrites. Stratified this way, every round sends each
// pool program the same number of times, so the number of picks the LP
// defects fail is the same in every run; with independent draws, a
// seed that picked a failing program a few times more moved the
// failure count and, through the deadline each failure holds a worker
// for, the throughput.
const (
	roundReqs  = 100 * batchEvery
	roundPicks = roundReqs + roundReqs/batchEvery*(batchSize-1)
	roundExact = roundPicks * 75 / 100
	roundEquiv = roundPicks * 15 / 100
	roundNew   = roundPicks - roundExact - roundEquiv
)

// rate is the open loop's arrival rate in requests per second: 30–40%
// of the 390–510 requests/s the closed loop sustains on a 2-core host
// (FINDINGS.md), so the server is loaded but its queue stays short.
const rate = 160

// pick is one program of a request.
type pick struct {
	src  string
	base string // the program src is equivalent to
	fam  Family
}

// request is one scheduled request and, once sent, its outcome.
type request struct {
	picks []pick
	body  []byte
	id    int

	due, sent, done time.Time
	status          int
	resp            []byte
	// err fails every pick of the request; slotErr fails one.
	err     string
	slotErr []string
	// Single-solve response fields.
	memoHit, cacheHit bool
	solveNs           int64
	shift             int64
	approx            float64
	costs             []int64 // per pick; -1 for a failed slot
	throttled         bool
}

// pickErr is why pick i of r failed, or "".
func (r *request) pickErr(i int) string {
	if r.err != "" || r.slotErr == nil {
		return r.err
	}
	return r.slotErr[i]
}

// failPick fails pick i of r.
func (r *request) failPick(i int, why string) {
	if r.slotErr == nil {
		r.slotErr = make([]string, len(r.picks))
	}
	if r.slotErr[i] == "" {
		r.slotErr[i] = why
	}
}

// zipfCounts spreads total draws over ranks 1..n by Zipf weight with
// skew s: each rank gets the floor of its expected count, and the
// ranks with the largest remainders one more.
func zipfCounts(n int, s float64, total int) []int {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	counts := make([]int, n)
	rem := make([]int, n)
	left := total
	for i := range w {
		x := w[i] / sum * float64(total)
		counts[i] = int(x)
		left -= counts[i]
		w[i] = x - float64(counts[i])
		rem[i] = i
	}
	sort.SliceStable(rem, func(a, b int) bool { return w[rem[a]] > w[rem[b]] })
	for _, i := range rem[:left] {
		counts[i]++
	}
	return counts
}

// equivalent draws a token-distinct equivalent of src that tr has not
// sent yet: each of its rewrite sites wrapped in 0 to maxParens
// redundant parentheses and the declaration split or not, all drawn at
// random. Every family has at least 2·3^7 such forms, far more than a
// run sends of its hottest program, and drawing them uniformly keeps
// their size the same from the start of a run to its end.
func (tr *traffic) equivalent(src string) string {
	sites := ParenSites(src)
	depth := make([]int, len(sites))
	for try := 0; try < 1000; try++ {
		for i := range depth {
			depth[i] = tr.gen.Intn(maxParens + 1)
		}
		v := Paren(src, sites, depth)
		if tr.gen.Intn(2) == 1 {
			v = SplitDecl(v)
		}
		if !tr.seen[v] {
			tr.seen[v] = true
			return v
		}
	}
	panic("perfbench: no unsent equivalent of a pool program is left")
}

// traffic generates the seeded request stream.
type traffic struct {
	gen     *Gen
	catalog *Gen
	pool    []Program
	// fresh are the never-seen programs, in the order each server's
	// life sends them; nextFresh counts those the current server got.
	fresh     []Program
	nextFresh int
	// exact and equiv are each pool program's picks per round.
	exact, equiv []int
	seen         map[string]bool // every source drawn so far
	queue        []pick          // the rest of the current round
	n            int             // requests generated
}

// catalogSeed seeds the pool and the never-seen programs. They are the
// same in every run, like a service's standing catalog; the run's seed
// draws the order of the picks and the equivalents' rewrites.
const catalogSeed = 0

func newTraffic(seed int64) *traffic {
	tr := &traffic{
		gen: NewGen(seed), catalog: NewGen(catalogSeed), seen: map[string]bool{},
		exact: zipfCounts(poolSize, zipfS, roundExact), equiv: zipfCounts(poolSize, zipfS, roundEquiv),
	}
	for len(tr.pool) < poolSize {
		tr.pool = append(tr.pool, tr.draw())
	}
	return tr
}

// draw returns the catalog's next program not drawn before.
func (tr *traffic) draw() Program {
	for {
		if p := tr.catalog.Next(); !tr.seen[p.Src] {
			tr.seen[p.Src] = true
			return p
		}
	}
}

// newServer starts the never-seen programs over for a fresh server.
func (tr *traffic) newServer() { tr.nextFresh = 0 }

// refill queues the next round's picks in a seeded order. Equivalents
// and never-seen programs are left blank and drawn as they are sent.
func (tr *traffic) refill() {
	for i, p := range tr.pool {
		for k := 0; k < tr.exact[i]; k++ {
			tr.queue = append(tr.queue, pick{src: p.Src, base: p.Src, fam: p.Family})
		}
		for k := 0; k < tr.equiv[i]; k++ {
			tr.queue = append(tr.queue, pick{base: p.Src, fam: p.Family})
		}
	}
	for k := 0; k < roundNew; k++ {
		tr.queue = append(tr.queue, pick{})
	}
	for i := len(tr.queue) - 1; i > 0; i-- {
		j := tr.gen.Intn(i + 1)
		tr.queue[i], tr.queue[j] = tr.queue[j], tr.queue[i]
	}
}

// pick takes the next program of the stream.
func (tr *traffic) pick() pick {
	if len(tr.queue) == 0 {
		tr.refill()
	}
	p := tr.queue[0]
	tr.queue = tr.queue[1:]
	switch {
	case p.base == "":
		for tr.nextFresh >= len(tr.fresh) {
			tr.fresh = append(tr.fresh, tr.draw())
		}
		f := tr.fresh[tr.nextFresh]
		tr.nextFresh++
		return pick{src: f.Src, base: f.Src, fam: f.Family}
	case p.src == "":
		p.src = tr.equivalent(p.base)
	}
	return p
}

// next builds request id of the stream.
func (tr *traffic) next() *request {
	tr.n++
	r := &request{id: tr.n}
	if tr.n%batchEvery == 0 {
		srcs := make([]string, batchSize)
		for i := range srcs {
			r.picks = append(r.picks, tr.pick())
			srcs[i] = r.picks[i].src
		}
		r.body, _ = json.Marshal(service.BatchRequest{Programs: srcs}) // strings always marshal
	} else {
		r.picks = []pick{tr.pick()}
		r.body, _ = json.Marshal(service.SolveRequest{Source: r.picks[0].src}) // strings always marshal
	}
	return r
}

// servedEnv is a running server and its client.
type servedEnv struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
	// traced turns on the handler timing wrapper.
	traced  atomic.Bool
	handler sync.Map // request id → [2]time.Time
}

// workers is the server's scheduler budget: one worker per slot of a
// batch. With one worker per core, the slots of a batch queued behind
// picks that hold a worker to the deadline (the LP defect's), timed out
// in the queue, and so failed or not as the seed's order happened to
// group defective picks; with a worker per slot, a pick fails only on
// its own program, and a run fails the same picks whatever its seed.
const workers = batchSize

// startServer starts an in-process server on loopback.
func startServer() (*servedEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &servedEnv{
		srv:  service.New(service.Config{Workers: workers, SolveTimeout: deadline}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true,
		}},
	}
	env.hs = &http.Server{Handler: http.HandlerFunc(env.serve)}
	go func() {
		defer close(env.done)
		env.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	}()
	return env, nil
}

// serve is the benchmark's wrapper around the server's ServeHTTP.
func (env *servedEnv) serve(w http.ResponseWriter, r *http.Request) {
	if !env.traced.Load() {
		env.srv.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	env.srv.ServeHTTP(w, r)
	if id, err := strconv.Atoi(r.Header.Get("X-Bench-Op")); err == nil {
		env.handler.Store(id, [2]time.Time{t0, time.Now()})
	}
}

// stop drains the server and closes the listener and client.
func (env *servedEnv) stop() error {
	err := env.srv.Drain(10 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := env.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	<-env.done
	env.client.CloseIdleConnections()
	return err
}

var approxRE = regexp.MustCompile(`approx cost ([0-9.e+-]+)`)

// send issues r and records its status and response body; parse reads
// them after the window, so decoding does not compete with the server
// for the CPU while latencies are measured.
func (env *servedEnv) send(r *request) {
	path := "/v1/solve"
	if len(r.picks) > 1 {
		path = "/v1/batch"
	}
	req, err := http.NewRequest(http.MethodPost, env.url+path, bytes.NewReader(r.body))
	if err != nil {
		r.err = "request: " + err.Error()
		return
	}
	req.Header.Set("X-Bench-Op", strconv.Itoa(r.id))
	r.sent = time.Now()
	resp, err := env.client.Do(req)
	if err != nil {
		r.done = time.Now()
		r.err = "http: " + err.Error()
		return
	}
	r.resp, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status = resp.StatusCode
	if err != nil {
		r.err = "http: " + err.Error()
	}
}

// parse records the outcome of a sent request from its response.
func (r *request) parse() {
	if r.err != "" {
		return
	}
	switch {
	case r.status == http.StatusTooManyRequests:
		r.throttled = true
		r.err = "throttled"
	case r.status == http.StatusGatewayTimeout:
		r.err = "deadline exceeded"
	case r.status != http.StatusOK:
		var e struct{ Error string }
		json.Unmarshal(r.resp, &e) //nolint:errcheck // the status names the failure
		r.err = errClass(errors.New(e.Error))
	case len(r.picks) == 1:
		r.parseSolve(r.resp)
	default:
		r.parseBatch(r.resp)
	}
	r.resp = nil
}

func (r *request) parseSolve(body []byte) {
	var s service.SolveResponse
	if err := json.Unmarshal(body, &s); err != nil {
		r.err = "bad response: " + err.Error()
		return
	}
	r.memoHit, r.cacheHit, r.solveNs, r.shift = s.MemoHit, s.CacheHit, s.SolveNs, s.Shift
	r.costs = []int64{s.Cost}
	if m := approxRE.FindStringSubmatch(s.Report); m != nil {
		r.approx, _ = strconv.ParseFloat(m[1], 64)
	}
}

// parseBatch reads the NDJSON slots and summary, fails the picks of
// failed slots, and checks that the summary's failed count equals the
// failed slots.
func (r *request) parseBatch(body []byte) {
	r.costs = make([]int64, len(r.picks))
	failed, seen := 0, 0
	var sum *service.BatchSummary
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"summary"`)) {
			sum = new(service.BatchSummary)
			if err := json.Unmarshal(line, sum); err != nil {
				r.err = "bad batch summary: " + err.Error()
				return
			}
			continue
		}
		var s service.BatchSlot
		if err := json.Unmarshal(line, &s); err != nil || s.Slot < 0 || s.Slot >= len(r.costs) {
			r.err = "bad batch slot"
			return
		}
		seen++
		r.costs[s.Slot] = s.Cost
		if s.Error != "" {
			failed++
			r.costs[s.Slot] = -1
			r.failPick(s.Slot, "batch slot: "+errClass(errors.New(s.Error)))
		}
	}
	switch {
	case sum == nil || seen != len(r.picks):
		r.err = "incomplete batch response"
	case sum.Failed != failed || sum.Programs != len(r.picks):
		r.err = "batch summary disagrees with its slots"
	}
}

// phase is one open-loop stretch at a fixed rate.
type phase struct {
	reqs        []*request
	start       time.Time
	window      time.Duration
	queue, busy []float64
}

// runPhase sends tr's next n requests at the arrival rate, each at its
// due time, and waits for all of them.
func (env *servedEnv) runPhase(tr *traffic, n int) *phase {
	ph := &phase{start: time.Now()}
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	gap := time.Second / rate
	for i := 0; i < n; i++ {
		r := tr.next()
		r.due = ph.start.Add(time.Duration(i) * gap)
		time.Sleep(time.Until(r.due))
		ph.reqs = append(ph.reqs, r)
		st := env.srv.Scheduler().Stats()
		ph.queue = append(ph.queue, float64(st.Waiting))
		ph.busy = append(ph.busy, float64(st.Leased)/float64(st.Budget))
		if outstanding.Load() >= maxOutstanding {
			r.sent, r.done, r.err = time.Now(), time.Now(), "backlog overflow"
			continue
		}
		outstanding.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer outstanding.Add(-1)
			env.send(r)
		}()
	}
	ph.window = time.Since(ph.start)
	wg.Wait()
	for _, r := range ph.reqs {
		r.parse()
	}
	return ph
}

// ops converts a phase's requests to timed operations, latency from
// each request's due time; a request fails if any of its picks did.
func (ph *phase) ops() []Op {
	ops := make([]Op, len(ph.reqs))
	for i, r := range ph.reqs {
		ops[i] = Op{Lat: r.done.Sub(r.due), Programs: len(r.picks)}
		for j := range r.picks {
			if ops[i].Err = r.pickErr(j); ops[i].Err != "" {
				break
			}
		}
	}
	return ops
}

// pickOps converts a phase's requests to one operation per pick, the
// unit the run's attempted and failed counts, success_frac and
// cost_gap are over. A batch answers several programs, and how a seed
// groups failing picks into batches must not change the failure count.
func (ph *phase) pickOps() []Op {
	var ops []Op
	for _, r := range ph.reqs {
		for j, p := range r.picks {
			o := Op{Lat: r.done.Sub(r.due), Programs: 1, Err: r.pickErr(j)}
			if len(r.picks) == 1 && o.Err == "" {
				o.Key, o.Shift, o.Approx = p.base, r.shift, r.approx
			}
			ops = append(ops, o)
		}
	}
	return ops
}

// setupServed starts a server and warms its cache with the hottest
// pool programs.
func setupServed(tr *traffic) (*servedEnv, error) {
	env, err := startServer()
	if err != nil {
		return nil, err
	}
	tr.newServer()
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxConns)
	for i := 0; i < warmTop; i++ {
		r := &request{picks: []pick{{src: tr.pool[i].Src}}}
		r.body, _ = json.Marshal(service.SolveRequest{Source: r.picks[0].src}) // strings always marshal
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			env.send(r)
			<-sem
		}()
	}
	wg.Wait()
	return env, nil
}

// runSaturated sends tr's next n requests back to back over every
// client connection, a closed loop that keeps the server busy, so the
// programs it answers per second are its capacity under the traffic mix.
func (env *servedEnv) runSaturated(tr *traffic, n int) *phase {
	ph := &phase{start: time.Now()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if len(ph.reqs) >= n {
					mu.Unlock()
					return
				}
				r := tr.next()
				ph.reqs = append(ph.reqs, r)
				mu.Unlock()
				r.due = time.Now()
				env.send(r)
			}
		}()
	}
	wg.Wait()
	ph.window = time.Since(ph.start)
	for _, r := range ph.reqs {
		r.parse()
	}
	return ph
}

// openShare is the share of an untraced run's window spent in the open
// loop; the rest measures capacity in closed-loop bursts (bursts of
// them), each on a server of its own.
const (
	openShare = 0.5
	bursts    = setups / 2
)

// roundTime is roughly how long the closed loop takes to send one round
// on a 2-core host. Like the open loop's rounds, the bursts' rounds are
// counted from --seconds, not timed, so every run sends whole rounds
// and the same number of them.
const roundTime = 1800 * time.Millisecond

// servedRounds is how many rounds the open loop and each burst send in
// a run of secs.
func servedRounds(secs time.Duration) (open, burst int) {
	open = int(math.Round(openShare * secs.Seconds() * rate / roundReqs))
	burst = int(math.Round((1 - openShare) * secs.Seconds() / bursts / roundTime.Seconds()))
	return max(1, open), max(1, burst)
}

// runServed is the served-zipf workload: an open loop at a fixed rate
// against an in-process server on loopback HTTP, then closed-loop
// bursts, each on a fresh server, that saturate it.
func runServed(seed int64, secs time.Duration, trace bool) *Result {
	r := &Result{Correct: true}
	tr := newTraffic(seed)
	var setup []float64
	var env *servedEnv
	// setUp replaces env n times by a freshly started and warmed server.
	setUp := func(n int) bool {
		for i := 0; i < n; i++ {
			if env != nil {
				if err := env.stop(); err != nil {
					r.Correct = false
					r.fail("drain: " + err.Error())
				}
			}
			runtime.GC()
			t0 := time.Now()
			var err error
			if env, err = setupServed(tr); err != nil {
				r.Correct = false
				r.fail("set-up: " + err.Error())
				return false
			}
			setup = append(setup, time.Since(t0).Seconds())
		}
		return true
	}
	openRounds, burstRounds := servedRounds(secs)
	var open, untracedHalf *phase
	var sat []*phase
	var kb float64
	if trace {
		if !setUp(1) {
			return r
		}
		untracedHalf = env.runPhase(tr, openRounds*roundReqs)
		env.traced.Store(true)
		open = env.runPhase(tr, openRounds*roundReqs)
	} else {
		// The set-ups are split between the two loops, so their times
		// sample the host across the run as the loops do.
		if !setUp(setups - bursts) {
			return r
		}
		alloc := newAllocMeter()
		open = env.runPhase(tr, openRounds*roundReqs)
		kb = alloc.kb()
		for b := 0; b < bursts; b++ {
			if !setUp(1) {
				return r
			}
			alloc = newAllocMeter()
			sat = append(sat, env.runSaturated(tr, burstRounds*roundReqs))
			kb += alloc.kb()
		}
	}
	if err := env.stop(); err != nil {
		r.Correct = false
		r.fail("drain: " + err.Error())
	}
	all := append([]*phase{open}, sat...)
	if untracedHalf != nil {
		all = append(all, untracedHalf)
	}
	verifyServed(all)
	var picks []Op
	for _, ph := range all {
		picks = append(picks, ph.pickOps()...)
	}
	r.tally(picks)
	if trace {
		r.Metrics = servedLayers(r, env, open, untracedHalf)
		r.Metrics.set("lp.budget_exhausted", float64(budgetFailures(all)), "count")
		return r
	}
	// Capacity is the median over the bursts of the programs each
	// answered correctly per second.
	rates := make([]float64, len(sat))
	for i, ph := range sat {
		rates[i] = answeredRate(ph.pickOps(), ph.window)
	}
	endToEnd(&r.Metrics, open.ops(), picks, median(rates), kb, setup)
	return r
}

// budgetFailures re-solves, in process and with no deadline, every
// distinct program of a failed pick, and counts the failed picks whose
// program fails there with lp.ErrBudget: the served deadline cuts such
// a solve short before the LP gives up on its own.
func budgetFailures(phases []*phase) int {
	picks := map[string]int{}
	var order []string
	for _, ph := range phases {
		for _, r := range ph.reqs {
			for i, p := range r.picks {
				if r.pickErr(i) == "" {
					continue
				}
				if picks[p.base] == 0 {
					order = append(order, p.base)
				}
				picks[p.base]++
			}
		}
	}
	budget := make([]bool, len(order))
	forEach(len(order), func(i int) {
		ctx, cancel := context.WithTimeout(context.Background(), budgetResolveLimit)
		defer cancel()
		_, err := repro.AlignSourceContext(ctx, order[i], repro.DefaultOptions())
		budget[i] = err != nil && errClass(err) == "lp budget exhausted"
	})
	n := 0
	for i, b := range order {
		if budget[i] {
			n += picks[b]
		}
	}
	return n
}

// budgetResolveLimit bounds one re-solve of budgetFailures; the
// dense-tableau defect exhausts its budget within about 6 s.
const budgetResolveLimit = 30 * time.Second

// forEach runs f(0) … f(n-1) on GOMAXPROCS workers.
func forEach(n int, f func(i int)) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// verifyServed re-solves, in process and without a cache, every
// distinct program that was answered, and fails each pick whose
// served cost differs from cost.Exact of that answer, or is nonzero
// where the family's optimum is 0.
func verifyServed(phases []*phase) {
	type answer struct {
		r   *request
		i   int
		fam Family
	}
	byBase := map[string][]answer{}
	var order []string
	for _, ph := range phases {
		for _, r := range ph.reqs {
			for i, p := range r.picks {
				if r.pickErr(i) != "" {
					continue
				}
				if byBase[p.base] == nil {
					order = append(order, p.base)
				}
				byBase[p.base] = append(byBase[p.base], answer{r, i, p.fam})
			}
		}
	}
	type verdict struct {
		cost int64
		err  string
	}
	verdicts := make([]verdict, len(order))
	forEach(len(order), func(i int) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*deadline)
		defer cancel()
		res, err := repro.AlignSourceContext(ctx, order[i], repro.DefaultOptions())
		if err != nil {
			verdicts[i].err = "uncached re-solve failed: " + errClass(err)
			return
		}
		verdicts[i].cost = cost.Exact(res.Graph, res.Assignment()).Total()
	})
	for i, b := range order {
		v := verdicts[i]
		for _, a := range byBase[b] {
			switch got := a.r.costs[a.i]; {
			case v.err != "":
				a.r.failPick(a.i, v.err)
			case got != v.cost:
				a.r.failPick(a.i, "served cost differs from the in-process answer")
			case a.fam.ZeroCost() && got != 0:
				a.r.failPick(a.i, "nonzero exact cost where the optimum is 0")
			}
		}
	}
}

// servedLayers computes the per-layer metrics of a traced run: spans
// are rebuilt from each request's timestamps (due → sent → handler).
func servedLayers(r *Result, env *servedEnv, base, untracedHalf *phase) Metrics {
	m := newLayerMetrics()
	t := newTracer()
	r.tracer = t
	var handler, server, overhead, lag []float64
	memo, pipe, miss, singles, throttled := 0, 0, 0, 0, 0
	for _, q := range base.reqs {
		if q.throttled {
			throttled++
		}
		lag = append(lag, ms(q.sent.Sub(q.due)))
		h, ok := env.handler.Load(q.id)
		if !ok || q.sent.IsZero() {
			continue
		}
		hs := h.([2]time.Time)
		t.add(q.id, q.due, q.done, "op", -1)
		p := t.add(q.id, q.sent, q.done, "http.request", len(t.spans)-1)
		t.add(q.id, hs[0], hs[1], "service.handler", p)
		handler = append(handler, ms(hs[1].Sub(hs[0])))
		overhead = append(overhead, ms(q.done.Sub(q.sent)-hs[1].Sub(hs[0])))
		if len(q.picks) != 1 || q.err != "" {
			continue
		}
		singles++
		server = append(server, float64(q.solveNs)/1e6)
		switch {
		case q.memoHit:
			memo++
		case q.cacheHit:
			pipe++
		default:
			miss++
		}
	}
	var keys []float64
	opts := alignOpts(nil, false)
	for _, q := range base.reqs {
		t0 := time.Now()
		align.SourceKeyOf(q.picks[0].src, opts)
		keys = append(keys, ms(time.Since(t0)))
	}
	m.set("memo.key_ms", median(keys), "ms")
	m.set("service.handler_ms", median(handler), "ms")
	m.set("service.server_ms", median(server), "ms")
	m.set("http.overhead_ms", median(overhead), "ms")
	m.set("gen.lag_ms", quantile(lag, 0.99), "ms")
	m.set("sched.queue_depth", mean(base.queue), "count")
	m.set("sched.busy_frac", mean(base.busy), "ratio")
	m.set("quota.throttled", float64(throttled), "count")
	if singles > 0 {
		m.set("memo.hit_ratio", float64(memo)/float64(singles), "ratio")
		m.set("pipeline.hit_ratio", float64(pipe)/float64(singles), "ratio")
		m.set("cache.miss_ratio", float64(miss)/float64(singles), "ratio")
	}
	c := env.srv.Cache()
	hits, misses := c.Counters()
	if _, shared := c.FlightStats(); hits+misses > 0 {
		m.set("cache.shared_ratio", float64(shared)/float64(hits+misses), "ratio")
	}
	m.set("cache.contention", float64(c.Contention()), "count")
	picks := base.pickOps()
	m.set("failed_frac", float64(failures(picks))/float64(len(picks)), "ratio")
	m.set("trace.overhead_frac", median(latencies(base.ops()))/median(latencies(untracedHalf.ops()))-1, "ratio")
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
