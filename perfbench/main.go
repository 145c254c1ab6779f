// Command perfbench is the repository benchmark: it drives the aligner
// on one of three seeded workloads from a single process, checks every
// answer, and prints the workload's metrics.
//
//	perfbench --workload cold-corpus|served-zipf|edit-stream \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of an untraced run;
// with --trace 1 it runs the layers under spans and prints the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/lp"
)

// Result is what one run reports.
type Result struct {
	// Correct is false when the benchmark could not vouch for the run:
	// a traced answer differed from the untraced one, the server did not
	// drain, or no operation ran. Failed operations, wrong answers
	// included, are counted in Failed instead.
	Correct   bool
	Attempted int
	Failed    int
	Metrics   Metrics
	// Reasons tallies why operations failed.
	Reasons map[string]int
	tracer  *Tracer
}

func (r *Result) fail(reason string) {
	if r.Reasons == nil {
		r.Reasons = map[string]int{}
	}
	r.Reasons[reason]++
}

func (r *Result) tally(ops []Op) {
	r.Attempted += len(ops)
	for _, o := range ops {
		if o.Err != "" {
			r.Failed++
			r.fail(o.Err)
		}
	}
}

var workloads = map[string]func(seed int64, secs time.Duration, trace bool) *Result{
	"cold-corpus": runCold,
	"served-zipf": runServed,
	"edit-stream": runEdit,
}

func main() {
	workload := flag.String("workload", "", "cold-corpus, served-zipf or edit-stream")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload cold-corpus|served-zipf|edit-stream, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	res := run(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if res.tracer != nil {
		dir := filepath.Join(".bench_build", "perfbench")
		name := fmt.Sprintf("trace-%s-%d.jsonl", *workload, *seed)
		if err := res.tracer.write(dir, name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
	}
	report(*workload, res)
}

// report prints every metric by name with its unit, the failure
// reasons, and the JSON result line.
func report(workload string, r *Result) {
	fmt.Printf("workload %s: %d attempted, %d failed\n", workload, r.Attempted, r.Failed)
	reasons := make([]string, 0, len(r.Reasons))
	for k := range r.Reasons {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Printf("  failed %5d  %s\n", r.Reasons[k], k)
	}
	for _, n := range r.Metrics.names {
		v := r.Metrics.vals[n]
		fmt.Printf("  %-28s %14.6g %s\n", n, v.Value, v.Unit)
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{r.Correct && r.Attempted > 0, r.Attempted, r.Failed, r.Metrics.vals}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// errClass names an operation error for the failure tally. Errors that
// crossed HTTP arrive as text, so the classes are matched on it too.
func errClass(err error) string {
	s := err.Error()
	switch {
	case errors.Is(err, context.DeadlineExceeded) || strings.Contains(s, "deadline exceeded"):
		return "deadline exceeded"
	case errors.Is(err, lp.ErrBudget) || strings.Contains(s, "budget exhausted"):
		return "lp budget exhausted"
	}
	if len(s) > 80 {
		s = s[:80]
	}
	return "error: " + s
}
