package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Family names the program shapes of the corpus. Every generated
// program belongs to one family; its size parameters come from the
// generator's seeded stream.
type Family int

const (
	Fig1 Family = iota
	Rank4DP
	Stencil
	SpreadLoop
	Transpose
	Mixed
	numFamilies
)

var familyNames = [numFamilies]string{"fig1", "rank4-dp", "stencil", "spreadloop", "transpose", "mixed"}

func (f Family) String() string { return familyNames[f] }

// ZeroCost reports whether the family has a closed-form optimum of
// exact cost 0: Figure 1's mobile alignment, the wavefront stencil, and
// the transpose chain all align with no residual communication.
func (f Family) ZeroCost() bool { return f == Fig1 || f == Stencil || f == Transpose }

// Fig1 sizes are drawn from [fig1Lo, fig1Hi]; the other families have
// their own ranges in Of.
const (
	fig1Lo = 50
	fig1Hi = 300
)

// Program is one generated input: its family, its size parameters and
// its source text.
type Program struct {
	Family Family
	Size   [2]int
	Src    string
}

// Gen is the seeded program generator. The same seed yields the same
// sequence of programs, rewrites and edits.
type Gen struct {
	rng *rand.Rand
	// deck is a seeded permutation of the fig1 sizes; drawing walks it
	// so every window of fig1 programs spreads evenly over the range.
	deck []int
	// fam is a seeded permutation of the families, refilled as it
	// empties, so each block of numFamilies draws holds every family.
	fam []Family
}

// NewGen returns the generator for seed.
func NewGen(seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed))}
}

// Intn draws from [0, n) from the generator's stream.
func (g *Gen) Intn(n int) int { return g.rng.Intn(n) }

// Next draws the family of the next corpus program and generates it.
func (g *Gen) Next() Program {
	if len(g.fam) == 0 {
		for _, i := range g.rng.Perm(int(numFamilies)) {
			g.fam = append(g.fam, Family(i))
		}
	}
	f := g.fam[0]
	g.fam = g.fam[1:]
	return g.Of(f)
}

// Of draws sizes for family f and generates the program.
func (g *Gen) Of(f Family) Program {
	switch f {
	case Fig1:
		if len(g.deck) == 0 {
			for _, i := range g.rng.Perm(fig1Hi - fig1Lo + 1) {
				g.deck = append(g.deck, fig1Lo+i)
			}
		}
		m := g.deck[0]
		g.deck = g.deck[1:]
		return Program{f, [2]int{m}, fig1Src(m)}
	case Rank4DP:
		n, k := 8+g.rng.Intn(25), 2+g.rng.Intn(7)
		return Program{f, [2]int{n, k}, rank4Src(n, k)}
	case Stencil:
		n := 20 + g.rng.Intn(181)
		return Program{f, [2]int{n}, stencilSrc(n)}
	case SpreadLoop:
		n, k := 20+g.rng.Intn(181), 4+g.rng.Intn(29)
		return Program{f, [2]int{n, k}, spreadSrc(n, k)}
	case Transpose:
		a, b := 16+g.rng.Intn(497), 16+g.rng.Intn(497)
		return Program{f, [2]int{a, b}, transposeSrc(a, b)}
	default:
		n := 20 + g.rng.Intn(181)
		k := 2 + g.rng.Intn(n/2)
		return Program{Mixed, [2]int{n, k}, mixedSrc(n, k)}
	}
}

// corpusSeed seeds the sizes of the cold-corpus programs.
const corpusSeed = 0

// Corpus is the cold corpus: every fig1 size of [fig1Lo, fig1Hi], and
// as many programs of each other family, their sizes drawn with
// corpusSeed. It is the same for every run; a run's seed draws only its
// order (Cycle), so every run meets the programs the LP defects fail on
// equally often.
func Corpus() [numFamilies][]Program {
	var c [numFamilies][]Program
	g := NewGen(corpusSeed)
	for f := Family(0); f < numFamilies; f++ {
		for i := fig1Lo; i <= fig1Hi; i++ {
			c[f] = append(c[f], g.Of(f))
		}
	}
	return c
}

// Cycle returns the corpus c in an order drawn from g: each family's
// programs shuffled, then dealt in blocks of one program per family,
// the families of each block shuffled.
func (g *Gen) Cycle(c [numFamilies][]Program) []Program {
	var lists [numFamilies][]Program
	for f := range c {
		for _, j := range g.rng.Perm(len(c[f])) {
			lists[f] = append(lists[f], c[f][j])
		}
	}
	var out []Program
	for b := range lists[Fig1] {
		for _, f := range g.rng.Perm(int(numFamilies)) {
			out = append(out, lists[f][b])
		}
	}
	return out
}

// fig1Src is the paper's Figure 1 fragment at size m.
func fig1Src(m int) string {
	return fmt.Sprintf("real A(%d,%d), V(%d)\ndo k = 1, %d\n  A(k,1:%d) = A(k,1:%d) + V(k:k+%d)\nenddo\n",
		m, m, 2*m, m, m, m, m-1)
}

// rank4Src is the rank-4 DP workload: four template axes, strided
// sections, transposes and LIV-indexed reads.
func rank4Src(n, iters int) string {
	f := "1:%[1]d,1:%[1]d,1:%[1]d,1:%[1]d"
	full := fmt.Sprintf(f, n)
	strided := fmt.Sprintf("2:%[1]d:2,2:%[1]d:2,2:%[1]d:2,2:%[1]d:2", 2*n)
	return fmt.Sprintf("real A(%[1]d,%[1]d,%[1]d,%[1]d), B(%[2]d,%[2]d,%[2]d,%[2]d), C(%[1]d,%[1]d), D(%[1]d,%[1]d), V(%[1]d)\n"+
		"do k = 1, %[3]d\n"+
		"  A(%[4]s) = A(%[4]s) + B(%[5]s)\n"+
		"  C = C + transpose(D)\n"+
		"  D = transpose(C)\n"+
		"  V = V + A(1:%[1]d,k,k,k)\n"+
		"  C(1:%[1]d,k) = V\n"+
		"enddo\n", n, 2*n, iters, full, strided)
}

// stencilSrc is the wavefront sweep at size n.
func stencilSrc(n int) string {
	return fmt.Sprintf("real U(%d), F(%d)\ndo k = 1, %d\n  U(k:k+%d) = U(k:k+%d) + F(k:k+%d)\n  F(k:k+%d) = F(k:k+%d) * 2\nenddo\n",
		2*n, 2*n, n, n-1, n-1, n-1, n-1, n-1)
}

// spreadSrc is Figure 4's replicated spread inside a loop.
func spreadSrc(n, iters int) string {
	m := 2 * n
	return fmt.Sprintf("real T(%d), B(%d,%d)\ndo k = 1, %d\n  T = cos(T)\n  B = B + spread(T, 2, %d)\nenddo\n",
		n, n, m, iters, m)
}

// transposeSrc is Example 3's transpose chain.
func transposeSrc(a, b int) string {
	return fmt.Sprintf("real B(%d,%d), C(%d,%d)\nB = B + transpose(C)\nB = B * 2\nC = transpose(B)\n", a, b, b, a)
}

// mixedSrc pairs a mobile loop group with a disjoint straight-line
// shift group, so the program has two independent components.
func mixedSrc(n, iters int) string {
	return fmt.Sprintf("real A(%[1]d,%[1]d), B(%[1]d,%[1]d), C(%[1]d,%[1]d), T(%[1]d,%[1]d), U(%[1]d,%[1]d)\n"+
		"do k = 1, %[2]d\n  T(k,1:%[1]d) = T(k,1:%[1]d) + U(k,1:%[1]d)\nenddo\n"+
		"A(1:%[3]d,1:%[3]d) = B(3:%[1]d,2:%[4]d) + C(2:%[4]d,3:%[1]d)\n"+
		"C(1:%[3]d,1:%[3]d) = A(2:%[4]d,2:%[4]d) * 2\n", n, iters, n-2, n-1)
}

// maxParens caps how many redundant parentheses one rewrite site
// takes, so a rewrite's size stays bounded however many are drawn.
const maxParens = 2

// ParenSites returns the spans [start, end) of src that may be wrapped
// in redundant parentheses without changing the AST: every identifier
// and number of an assignment statement except the assigned array's
// name, and every array reference or intrinsic call on a right-hand
// side. The parser drops grouping parentheses, so each wrap changes
// the token stream (the source memo's key) but not the ADG.
func ParenSites(src string) [][2]int {
	var sites [][2]int
	for _, l := range lineSpans(src) {
		line := src[l[0]:l[1]]
		t := strings.TrimSpace(line)
		eq := strings.IndexByte(line, '=')
		if eq < 0 || strings.HasPrefix(t, "do ") || strings.HasPrefix(t, "real ") {
			continue
		}
		lhsName := true
		for i := 0; i < len(line); {
			c := line[i]
			switch {
			case isLetter(c):
				j := i
				for j < len(line) && (isLetter(line[j]) || isDigit(line[j])) {
					j++
				}
				switch {
				case lhsName:
					lhsName = false
				case j < len(line) && line[j] == '(':
					if i > eq {
						sites = append(sites, [2]int{l[0] + i, l[0] + matchParen(line, j) + 1})
					}
				default:
					sites = append(sites, [2]int{l[0] + i, l[0] + j})
				}
				i = j
			case isDigit(c):
				j := i
				for j < len(line) && isDigit(line[j]) {
					j++
				}
				sites = append(sites, [2]int{l[0] + i, l[0] + j})
				i = j
			default:
				i++
			}
		}
	}
	return sites
}

// lineSpans returns the [start, end) offsets of src's lines.
func lineSpans(src string) [][2]int {
	var out [][2]int
	for start := 0; start < len(src); {
		end := strings.IndexByte(src[start:], '\n')
		if end < 0 {
			end = len(src) - start
		}
		out = append(out, [2]int{start, start + end})
		start += end + 1
	}
	return out
}

// matchParen returns the index of the ')' closing the '(' at s[open].
func matchParen(s string, open int) int {
	depth := 0
	for i := open; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return len(s) - 1
}

func isLetter(c byte) bool { return c == '_' || 'a' <= c|0x20 && c|0x20 <= 'z' }
func isDigit(c byte) bool  { return '0' <= c && c <= '9' }

// Paren wraps site i of sites (from ParenSites(src)) in depth[i]
// redundant parentheses.
func Paren(src string, sites [][2]int, depth []int) string {
	opens := map[int]int{}
	closes := map[int]int{}
	for i, s := range sites {
		opens[s[0]] += depth[i]
		closes[s[1]] += depth[i]
	}
	var b strings.Builder
	for i := 0; i <= len(src); i++ {
		b.WriteString(strings.Repeat(")", closes[i]))
		b.WriteString(strings.Repeat("(", opens[i]))
		if i < len(src) {
			b.WriteByte(src[i])
		}
	}
	return b.String()
}

// SplitDecl rewrites src into a token-distinct equivalent: the first
// multi-array `real` declaration becomes one `real` line per array.
func SplitDecl(src string) string {
	nl := strings.IndexByte(src, '\n')
	head, rest := src[:nl], src[nl:]
	if !strings.HasPrefix(head, "real ") {
		return src
	}
	var b strings.Builder
	depth, start := 0, len("real ")
	for i := start; i < len(head); i++ {
		switch head[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				b.WriteString("real " + strings.TrimSpace(head[start:i]) + "\n")
				start = i + 1
			}
		}
	}
	b.WriteString("real " + strings.TrimSpace(head[start:]))
	return b.String() + rest
}

// editComps is the component count of the edit-stream program.
const editComps = 16

// editSrc is the 16-component incremental program: component i reads
// Q_i at shift 1, except component `edited`, which reads it at shift.
// Pass edited < 0 for the unedited base program.
func editSrc(edited, shift int) string {
	var decls, body strings.Builder
	decls.WriteString("real ")
	for i := 0; i < editComps; i++ {
		e := 1
		if i == edited {
			e = shift
		}
		if i > 0 {
			decls.WriteString(", ")
		}
		fmt.Fprintf(&decls, "P%d(5000), Q%d(5000)", i, i)
		fmt.Fprintf(&body, "do k = 1, 40\n  P%d(k:k+19) = P%d(k:k+19) + Q%d(k+%d:k+%d)\nenddo\n", i, i, i, e, e+19)
	}
	return decls.String() + "\n" + body.String()
}

// Edit is one seeded one-line edit of the edit-stream program.
type Edit struct {
	Comp, Shift int
}

// Edits returns n distinct seeded edits. Shifts run over [2, 4900]
// (the section stays inside Q's 5000 elements), and no (component,
// shift) pair repeats, so every edit is a never-seen program whose
// edited region misses every cache tier.
func (g *Gen) Edits(n int) []Edit {
	const shifts = 4899
	if n > editComps*shifts {
		n = editComps * shifts
	}
	out := make([]Edit, 0, n)
	for _, i := range g.rng.Perm(editComps * shifts)[:n] {
		out = append(out, Edit{Comp: i % editComps, Shift: 2 + i/editComps})
	}
	return out
}
