package main

import (
	"slices"
	"sort"
	"testing"

	"repro"
)

func TestSameSeedSameSources(t *testing.T) {
	a, b := NewGen(7), NewGen(7)
	for i := 0; i < 200; i++ {
		if pa, pb := a.Next(), b.Next(); pa.Src != pb.Src {
			t.Fatalf("draw %d differs:\n%s\nvs\n%s", i, pa.Src, pb.Src)
		}
	}
	ea, eb := NewGen(7).Edits(500), NewGen(7).Edits(500)
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edit %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
	ta, tb := newTraffic(7), newTraffic(7)
	for i := 0; i < 100; i++ {
		ra, rb := ta.next(), tb.next()
		if string(ra.body) != string(rb.body) {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestEditsDistinct(t *testing.T) {
	seen := map[Edit]bool{}
	for _, e := range NewGen(3).Edits(5000) {
		if seen[e] || e.Shift < 2 || e.Shift > 4900 || e.Comp < 0 || e.Comp >= editComps {
			t.Fatalf("bad or repeated edit %v", e)
		}
		seen[e] = true
	}
}

// TestRewritesLandInTheirTier checks that every token-distinct
// equivalent misses the source memo and is answered by the pipeline
// cache with the original's cost, that the exact source is a memo hit,
// and that each family has enough bounded-size equivalents for a run.
func TestRewritesLandInTheirTier(t *testing.T) {
	g := NewGen(1)
	for f := Family(0); f < numFamilies; f++ {
		p := g.Of(f)
		if f == Fig1 {
			p = Program{Fig1, [2]int{100}, fig1Src(100)}
		}
		sites := ParenSites(p.Src)
		if len(sites) < 7 {
			t.Errorf("%s: %d rewrite sites, want at least 7", f, len(sites))
		}
		opts := repro.DefaultOptions()
		opts.Cache = repro.NewCache(0)
		want, err := repro.AlignSource(p.Src, opts)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		tr := &traffic{gen: NewGen(int64(f)), seen: map[string]bool{p.Src: true}}
		for v := 0; v < 8; v++ {
			src := tr.equivalent(p.Src)
			if grown := len(src) - len(p.Src); grown > 2*maxParens*len(sites)+64 {
				t.Fatalf("%s equivalent %d grew by %d bytes", f, v, grown)
			}
			res, err := repro.AlignSource(src, opts)
			if err != nil {
				t.Fatalf("%s equivalent %d: %v\n%s", f, v, err, src)
			}
			if res.MemoHit || !res.Align.CacheHit {
				t.Errorf("%s equivalent %d: memo hit %v, pipeline hit %v; want a memo miss answered by the pipeline cache\n%s",
					f, v, res.MemoHit, res.Align.CacheHit, src)
			}
			if !sameCost(res.Cost, want.Cost) {
				t.Errorf("%s equivalent %d: cost %v, want %v", f, v, res.Cost, want.Cost)
			}
		}
		if res, err := repro.AlignSource(p.Src, opts); err != nil || !res.MemoHit {
			t.Errorf("%s: exact repeat is not a memo hit (err %v)", f, err)
		}
	}
}

// TestRunsAttemptTheSamePrograms checks that what a run attempts does
// not hang on its seed, only the order: a cold-corpus cycle is the whole
// corpus, every fig1 size once, in blocks of one program per family,
// and a served round sends the same multiset of programs, so every run
// meets the LP defects equally often.
func TestRunsAttemptTheSamePrograms(t *testing.T) {
	corpus := Corpus()
	var want []string
	for f := range corpus {
		for _, p := range corpus[f] {
			want = append(want, p.Src)
		}
	}
	sort.Strings(want)
	var orders [][]string
	for _, seed := range []int64{1, 2} {
		cycle := NewGen(seed).Cycle(corpus)
		var got []string
		sizes := map[int]int{}
		for i, p := range cycle {
			got = append(got, p.Src)
			if p.Family == Fig1 {
				sizes[p.Size[0]]++
			}
			if i%int(numFamilies) == 0 {
				seen := map[Family]bool{}
				for _, q := range cycle[i : i+int(numFamilies)] {
					seen[q.Family] = true
				}
				if len(seen) != int(numFamilies) {
					t.Fatalf("seed %d: block %d does not hold every family once", seed, i/int(numFamilies))
				}
			}
		}
		orders = append(orders, got)
		if len(sizes) != fig1Hi-fig1Lo+1 || len(cycle) != cycleOps {
			t.Fatalf("seed %d: a cycle of %d programs has %d fig1 sizes", seed, len(cycle), len(sizes))
		}
		got = append([]string(nil), got...)
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: a cycle is not the corpus", seed)
		}
	}
	if slices.Equal(orders[0], orders[1]) {
		t.Fatal("seeds 1 and 2 walk the corpus in the same order")
	}
	round := func(seed int64) (map[string]int, []string) {
		tr := newTraffic(seed)
		tr.newServer()
		bases := map[string]int{}
		var order []string
		for i := 0; i < roundReqs; i++ {
			for _, p := range tr.next().picks {
				bases[p.base]++
				order = append(order, p.base)
			}
		}
		if len(tr.queue) != 0 || len(order) != roundPicks {
			t.Fatalf("seed %d: a round sent %d picks and left %d, want %d and 0", seed, len(order), len(tr.queue), roundPicks)
		}
		return bases, order
	}
	a, ao := round(1)
	b, bo := round(2)
	if len(a) != len(b) {
		t.Fatalf("rounds of seeds 1 and 2 send %d and %d distinct programs", len(a), len(b))
	}
	for k, n := range a {
		if b[k] != n {
			t.Fatalf("a program is sent %d times in seed 1's round, %d in seed 2's", n, b[k])
		}
	}
	same := 0
	for i := range ao {
		if ao[i] == bo[i] {
			same++
		}
	}
	if same == len(ao) {
		t.Fatal("rounds of seeds 1 and 2 send their picks in the same order")
	}
}
