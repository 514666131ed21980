package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// query is one self-contained SAT question: a CNF over nVars variables,
// a conflict budget and the assumption sets of successive Solve calls
// (with one extra clause added between calls, as incremental callers do).
type query struct {
	nVars   int
	grow    bool // declare variables with Grow instead of AddVar
	clauses [][]Lit
	budget  int64
	solves  [][]Lit
	extra   [][]Lit // extra[i] is added after solves[i]
}

func randomQuery(rng *rand.Rand) query {
	q := query{nVars: 5 + rng.Intn(50), grow: rng.Intn(2) == 0}
	// Random 3-SAT around the satisfiability threshold (ratio 4.26) with
	// small budgets, so that Sat, Unsat and Unknown verdicts all occur.
	nCls := q.nVars*7/2 + rng.Intn(q.nVars+1)
	lit := func() Lit { return L(rng.Intn(q.nVars), rng.Intn(2) == 1) }
	for i := 0; i < nCls; i++ {
		c := make([]Lit, 3)
		for k := range c {
			c[k] = lit()
		}
		q.clauses = append(q.clauses, c)
	}
	q.budget = int64(rng.Intn(30)) - 1 // -1 = unlimited
	for i := 0; i < 1+rng.Intn(3); i++ {
		as := make([]Lit, rng.Intn(3))
		for k := range as {
			as[k] = lit()
		}
		q.solves = append(q.solves, as)
		q.extra = append(q.extra, []Lit{lit(), lit(), lit()})
	}
	return q
}

// outcome is everything a query's caller can observe, per Solve call.
type outcome struct {
	status    []Status
	conflicts []int64
	models    [][]bool // full assignment after Sat, nil otherwise
}

func (q query) run(s *Solver) outcome {
	if q.grow {
		s.Grow(q.nVars)
	} else {
		for i := 0; i < q.nVars; i++ {
			s.AddVar()
		}
	}
	s.ConflictBudget = q.budget
	for _, c := range q.clauses {
		s.AddClause(append([]Lit(nil), c...)...)
	}
	var o outcome
	for i, as := range q.solves {
		st := s.Solve(as...)
		o.status = append(o.status, st)
		o.conflicts = append(o.conflicts, s.conflicts)
		var model []bool
		if st == Sat {
			model = make([]bool, s.NumVars())
			for v := range model {
				model[v] = s.Value(v)
			}
		}
		o.models = append(o.models, model)
		s.AddClause(append([]Lit(nil), q.extra[i]...)...)
	}
	return o
}

// TestResetMatchesFresh is the exactness oracle for solver reuse: one
// solver, Reset before every query, must give the same verdicts, conflict
// counts and models as a fresh New(0) per query.
func TestResetMatchesFresh(t *testing.T) {
	var seen [3]int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reused := New(0)
		for n := 0; n < 8; n++ {
			q := randomQuery(rng)
			reused.Reset()
			got := q.run(reused)
			want := q.run(New(0))
			for i := range want.status {
				seen[want.status[i]]++
				if got.status[i] != want.status[i] || got.conflicts[i] != want.conflicts[i] {
					t.Logf("seed %d query %d solve %d: reused %v/%d conflicts, fresh %v/%d",
						seed, n, i, got.status[i], got.conflicts[i], want.status[i], want.conflicts[i])
					return false
				}
				for v := range want.models[i] {
					if got.models[i][v] != want.models[i][v] {
						t.Logf("seed %d query %d solve %d: models differ at x%d", seed, n, i, v)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	t.Logf("verdicts Sat/Unsat/Unknown = %d/%d/%d", seen[Sat], seen[Unsat], seen[Unknown])
	if seen[Sat] == 0 || seen[Unsat] == 0 || seen[Unknown] == 0 {
		t.Fatalf("verdict mix Sat/Unsat/Unknown = %d/%d/%d: every verdict must occur",
			seen[Sat], seen[Unsat], seen[Unknown])
	}
}

// TestAddClauseSortsInPlace pins the documented side effect on the
// caller's slice: AddClause orders its literals in place.
func TestAddClauseSortsInPlace(t *testing.T) {
	s := New(4)
	c := []Lit{L(3, false), L(0, true), L(2, false), L(1, true)}
	s.AddClause(c...)
	for i := 1; i < len(c); i++ {
		if c[i-1] > c[i] {
			t.Fatalf("literals not sorted in place: %v", c)
		}
	}
}

var benchStatus Status

// BenchmarkReusedSolver measures steady-state encode+solve on a reset
// solver: a fixed random 3-SAT instance near the threshold is added and
// solved under a small budget, as don't-care proofs do. It must report
// 0 allocs/op once the solver's storage has grown.
func BenchmarkReusedSolver(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const nVars = 60
	clauses := make([][3]Lit, 4*nVars)
	for i := range clauses {
		for k := range clauses[i] {
			clauses[i][k] = L(rng.Intn(nVars), rng.Intn(2) == 1)
		}
	}
	s := New(0)
	solve := func() Status {
		s.Reset()
		s.Grow(nVars)
		s.ConflictBudget = 300
		for i := range clauses {
			s.AddClause(clauses[i][:]...)
		}
		return s.Solve(L(0, false))
	}
	solve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStatus = solve()
	}
}
