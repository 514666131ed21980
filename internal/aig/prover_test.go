package aig_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/epfl"
	"repro/internal/obs"
	"repro/internal/sat"
)

// proverQuery is one don't-care or equivalence question as the synthesis
// passes ask it; run answers it on the given prover.
type proverQuery struct {
	name string
	run  func(p *aig.CNFBuilder) string
}

// proverQueries builds a deterministic mix of the three query kinds over
// g: ProveEqualWindow (constants, earlier nodes, fanins), proveIsAnd
// (true and false decompositions) and patternUnreachable (the first 8
// patterns of every LUT of a 6-LUT cover), with budgets small enough that
// some run out.
func proverQueries(g *aig.AIG, n int) []proverQuery {
	rng := rand.New(rand.NewSource(int64(g.NumVars())))
	first := g.NumPIs() + 1
	node := func() int { return first + rng.Intn(g.NumVars()-first) }
	budgets := []int64{0, 2, 50, 300}
	windows := []int{0, 30, 600}
	var qs []proverQuery
	for len(qs) < n {
		v := node()
		budget := budgets[rng.Intn(len(budgets))]
		window := windows[rng.Intn(len(windows))]
		f0, f1 := g.Fanins(v)
		var x aig.Lit
		switch rng.Intn(3) {
		case 0:
			x = aig.False
		case 1:
			x = aig.MakeLit(node(), rng.Intn(2) == 1)
		default:
			x = f0
		}
		vl := aig.MakeLit(v, false)
		qs = append(qs, proverQuery{fmt.Sprintf("equal(%d,%d,b%d,w%d)", vl, x, budget, window),
			func(p *aig.CNFBuilder) string {
				eq, proven := p.ProveEqualQuery(vl, x, budget, window)
				return fmt.Sprint(eq, proven)
			}})
		la, lb := f0, f1
		if rng.Intn(2) == 0 {
			lb = aig.MakeLit(node(), rng.Intn(2) == 1)
		}
		qs = append(qs, proverQuery{fmt.Sprintf("isAnd(%d,%d,%d,b%d,w%d)", v, la, lb, budget, window),
			func(p *aig.CNFBuilder) string {
				return fmt.Sprint(p.ProveIsAndQuery(v, la, lb, budget, window))
			}})
	}
	net := g.MapLUT(aig.LUTMapOptions{K: 6})
	for _, root := range net.Order {
		leaves := net.LUTs[root].Leaves
		for idx := 0; idx < 1<<uint(len(leaves)) && idx < 8; idx++ {
			budget := budgets[rng.Intn(len(budgets))]
			qs = append(qs, proverQuery{fmt.Sprintf("unreachable(%d,%d,b%d)", root, idx, budget),
				func(p *aig.CNFBuilder) string {
					return fmt.Sprint(p.PatternUnreachableQuery(leaves, idx, budget, 400))
				}})
		}
	}
	return qs
}

// observe runs q on p and returns its answer, the sat.solves and
// sat.conflicts it cost, and the solver's final assignment (the model
// after Sat, the root-level units otherwise).
func observe(q proverQuery, p *aig.CNFBuilder, reg *obs.Registry) string {
	solves, conflicts := reg.Counter("sat.solves").Value(), reg.Counter("sat.conflicts").Value()
	ans := q.run(p)
	model := make([]byte, p.S.NumVars())
	for v := range model {
		model[v] = '0'
		if p.S.Value(v) {
			model[v] = '1'
		}
	}
	return fmt.Sprintf("%s solves=%d conflicts=%d model=%s", ans,
		reg.Counter("sat.solves").Value()-solves, reg.Counter("sat.conflicts").Value()-conflicts, model)
}

// TestReusedProverMatchesFresh is the exactness oracle for prover reuse:
// one prover reset per query must give the same answers, SAT call and
// conflict counts and final assignments as a fresh builder and solver per
// query, over two EPFL circuits.
func TestReusedProverMatchesFresh(t *testing.T) {
	if obs.MetricsEnabled() {
		t.Fatal("metrics already enabled; the test owns the global registry")
	}
	reg := obs.EnableMetrics()
	defer obs.DisableMetrics()
	for _, name := range []string{"ctrl", "int2float"} {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		reused := aig.NewCNFBuilder(g, sat.New(0))
		before := reg.Counter("sat.conflicts").Value()
		qs := proverQueries(g, 600)
		for i, q := range qs {
			got := observe(q, reused, reg)
			want := observe(q, aig.NewCNFBuilder(g, sat.New(0)), reg)
			if got != want {
				t.Fatalf("%s query %d %s:\nreused %s\nfresh  %s", name, i, q.name, got, want)
			}
		}
		conflicts := reg.Counter("sat.conflicts").Value() - before
		t.Logf("%s: %d queries, %d conflicts", name, len(qs), conflicts)
		if conflicts == 0 {
			t.Fatalf("%s: no query reached a conflict; the oracle checks nothing", name)
		}
	}
}

var benchAnswer bool

// BenchmarkReusedProver measures steady-state encode+solve on one reused
// prover: the constant, 0-resub and decomposition proofs Resub asks over
// int2float, with its default budget and window, cycled. It must report
// 0 allocs/op once the prover's storage has grown.
func BenchmarkReusedProver(b *testing.B) {
	g, err := epfl.Build("int2float")
	if err != nil {
		b.Fatal(err)
	}
	opt := aig.DefaultResubOptions()
	p := aig.NewCNFBuilder(g, sat.New(0))
	first := g.NumPIs() + 1
	n := g.NumVars() - first
	query := func(i int) bool {
		v := first + i%n
		f0, f1 := g.Fanins(v)
		vl := aig.MakeLit(v, false)
		switch i % 3 {
		case 0:
			eq, _ := p.ProveEqualQuery(vl, aig.False, opt.SATBudget, opt.Window)
			return eq
		case 1:
			eq, _ := p.ProveEqualQuery(vl, f0, opt.SATBudget, opt.Window)
			return eq
		}
		return p.ProveIsAndQuery(v, f0, f1, opt.SATBudget, opt.Window)
	}
	for i := 0; i < 3*n; i++ {
		query(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchAnswer = query(i)
	}
}

var benchGraph *aig.AIG

// BenchmarkResub measures one SAT resubstitution pass over int2float.
func BenchmarkResub(b *testing.B) {
	g, err := epfl.Build("int2float")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGraph = g.Resub(aig.DefaultResubOptions())
	}
}

// BenchmarkMfs measures power-aware SAT don't-care minimization of the
// 6-LUT cover of int2float. Mapping runs outside the timer; Mfs edits the
// cover in place, so every iteration gets a fresh one.
func BenchmarkMfs(b *testing.B) {
	g, err := epfl.Build("int2float")
	if err != nil {
		b.Fatal(err)
	}
	opt := aig.DefaultMfsOptions()
	opt.PowerAware = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := g.MapLUT(aig.LUTMapOptions{K: 6, PowerAware: true})
		b.StartTimer()
		net.Mfs(opt)
	}
}
