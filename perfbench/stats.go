package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// Op is the outcome of one timed operation.
type Op struct {
	Lat time.Duration
	// Err is non-empty when the operation failed: an error, a missed
	// deadline, or a failed answer check.
	Err string
	// Shift and Approx are the exact §2.3 shift cost of the answer and
	// the §4.2 LP objective it came from (cost_gap's terms).
	Shift  int64
	Approx float64
	// Key names the program answered (its base source for a
	// token-distinct equivalent); cost_gap counts each program once.
	Key string
	// Programs is the number of programs the operation aligned (4 for a
	// served batch, 1 otherwise).
	Programs int
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencies returns the operations' latencies in milliseconds. A
// failed operation misses every latency limit, so it counts as taking
// at least the per-operation deadline.
func latencies(ops []Op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		l := o.Lat
		if o.Err != "" && l < deadline {
			l = deadline
		}
		out[i] = ms(l)
	}
	return out
}

// failures counts the failed operations.
func failures(ops []Op) int {
	n := 0
	for _, o := range ops {
		if o.Err != "" {
			n++
		}
	}
	return n
}

// costGap is the geometric mean, over the distinct programs answered
// successfully whose LP objective is positive, of (exact shift cost +
// 1) / (LP objective + 1). A ratio of sums would be set by the few
// largest programs (one mixed program reads 41 where its family reads
// 1); the geometric mean weighs every program alike. A workload whose
// LPs all have objective 0 has no gap to measure and reads 1.
func costGap(ops []Op) float64 {
	logSum, n := 0.0, 0
	seen := map[string]bool{}
	for _, o := range ops {
		if o.Err == "" && o.Approx > 0 && !seen[o.Key] {
			seen[o.Key] = true
			logSum += math.Log((float64(o.Shift) + 1) / (o.Approx + 1))
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return math.Exp(logSum / float64(n))
}

// allocMeter measures bytes allocated by the whole process.
type allocMeter struct{ start uint64 }

func newAllocMeter() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{m.TotalAlloc}
}

func (a allocMeter) kb() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc-a.start) / 1024
}

// Metrics is an ordered set of named measurements with units.
type Metrics struct {
	names []string
	vals  map[string]metricVal
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *Metrics) set(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = map[string]metricVal{}
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = metricVal{v, unit}
}

// answeredRate is the programs answered correctly per second of window.
func answeredRate(ops []Op, window time.Duration) float64 {
	answered := 0
	for _, o := range ops {
		if o.Err == "" {
			answered += o.Programs
		}
	}
	return float64(answered) / window.Seconds()
}

// medianRate is the median over chunks of the programs answered
// correctly per second of the chunk. A slow stretch of the host moves
// one chunk, not the figure, as it would a rate over the whole window.
func medianRate(ops []Op, chunks []chunk) float64 {
	rates := make([]float64, len(chunks))
	for i, c := range chunks {
		rates[i] = answeredRate(ops[c.first:c.end], c.window)
	}
	return median(rates)
}

// endToEnd fills the end-to-end metrics every workload reports: the
// latency percentiles over the operations of the latency window timed,
// the throughput tput, and the rest over every operation of the run.
func endToEnd(m *Metrics, timed, all []Op, tput, allocKB float64, setup []float64) {
	lat := latencies(timed)
	programs := 0
	for _, o := range all {
		programs += o.Programs
	}
	m.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	m.set("latency_p99_ms", quantile(lat, 0.99), "ms")
	m.set("throughput_ops_s", tput, "1/s")
	m.set("success_frac", 1-float64(failures(all))/float64(len(all)), "ratio")
	m.set("cost_gap", costGap(all), "ratio")
	m.set("alloc_kb_per_op", allocKB/float64(programs), "KiB")
	m.set("setup_s", median(setup), "s")
}
