package aig

import "repro/internal/sat"

// CNFBuilder incrementally Tseitin-encodes AIG cones into a SAT solver.
// When Limit is positive, at most Limit AND nodes are given defining
// clauses; deeper nodes become free cut-point variables. That windowing
// keeps proofs cheap and remains SOUND for UNSAT-based conclusions (if the
// miter is unsatisfiable even with free cut points, it is unsatisfiable for
// the real cone), at the cost of completeness (spurious SAT answers).
//
// A builder and its solver together form a prover. A pass that asks many
// small questions of one graph owns one prover and calls Reset before each
// query, so encoding reuses the storage of earlier queries. A prover is
// never shared between goroutines.
type CNFBuilder struct {
	G     *AIG
	S     *sat.Solver
	Limit int // max AND nodes encoded; 0 = unlimited
	// satVar maps an AIG variable to its SAT variable plus one (0 = not
	// encoded); touched lists the mapped AIG variables for Reset.
	satVar  []int32
	touched []int32
	nAnds   int
}

// NewCNFBuilder returns a builder over the given graph and solver.
func NewCNFBuilder(g *AIG, s *sat.Solver) *CNFBuilder {
	return &CNFBuilder{G: g, S: s}
}

// Reset prepares the builder for a new query over the same graph: no AIG
// variable is encoded and the solver is reset to the equivalent of
// sat.New(0). Limit is left as it is.
func (b *CNFBuilder) Reset() {
	for _, v := range b.touched {
		b.satVar[v] = 0
	}
	b.touched = b.touched[:0]
	b.nAnds = 0
	b.S.Reset()
}

// query resets the prover for one query under the given conflict budget
// and window, and returns its solver.
func (b *CNFBuilder) query(budget int64, window int) *sat.Solver {
	b.Reset()
	b.Limit = window
	b.S.ConflictBudget = budget
	return b.S
}

// SatVar returns the SAT variable encoding the given AIG variable, encoding
// its transitive fanin cone on first use (up to Limit AND nodes).
func (b *CNFBuilder) SatVar(v int) int {
	if v >= len(b.satVar) {
		// The graph may have grown since the last call (cec sweeps a graph
		// it is still building).
		b.satVar = append(b.satVar, make([]int32, max(b.G.NumVars(), v+1)-len(b.satVar))...)
	} else if sv := b.satVar[v]; sv != 0 {
		return int(sv) - 1
	}
	sv := b.S.AddVar()
	b.satVar[v] = int32(sv) + 1
	b.touched = append(b.touched, int32(v))
	if v == 0 {
		// Constant node: force FALSE.
		b.S.AddClause(sat.L(sv, true))
		return sv
	}
	if b.G.IsAnd(v) {
		if b.Limit > 0 && b.nAnds >= b.Limit {
			return sv // free cut point
		}
		b.nAnds++
		f0, f1 := b.G.Fanins(v)
		a := b.SatLit(f0)
		c := b.SatLit(f1)
		y := sat.L(sv, false)
		// y <-> a & c
		b.S.AddClause(y.Not(), a)
		b.S.AddClause(y.Not(), c)
		b.S.AddClause(y, a.Not(), c.Not())
	}
	return sv
}

// SatLit returns the SAT literal encoding the given AIG literal.
func (b *CNFBuilder) SatLit(l Lit) sat.Lit {
	return sat.L(b.SatVar(l.Var()), l.IsCompl())
}

// ProveEqual checks whether two literals of the same AIG are functionally
// equivalent over all PI assignments, within the given conflict budget.
// It returns (equal, proven): proven is false when the budget ran out.
func ProveEqual(g *AIG, a, b Lit, budget int64) (equal, proven bool) {
	return ProveEqualWindow(g, a, b, budget, 0)
}

// ProveEqualWindow is ProveEqual with a bounded CNF window: at most
// windowNodes AND nodes are encoded (0 = unlimited). A windowed UNSAT
// verdict is sound; a windowed SAT verdict may be spurious, so it is
// reported as not-equal-but-proven=false when windowed.
func ProveEqualWindow(g *AIG, a, b Lit, budget int64, windowNodes int) (equal, proven bool) {
	return NewCNFBuilder(g, sat.New(0)).proveEqual(a, b, budget, windowNodes)
}

// proveEqual is ProveEqualWindow as one query on a reused prover.
func (b *CNFBuilder) proveEqual(x, y Lit, budget int64, windowNodes int) (equal, proven bool) {
	if x == y {
		return true, true
	}
	s := b.query(budget, windowNodes)
	lx := b.SatLit(x)
	ly := b.SatLit(y)
	windowed := windowNodes > 0 && b.nAnds >= windowNodes
	// Miter: (x != y) satisfiable?
	switch s.Solve(lx, ly.Not()) {
	case sat.Sat:
		return false, !windowed
	case sat.Unknown:
		return false, false
	}
	switch s.Solve(lx.Not(), ly) {
	case sat.Sat:
		return false, !windowed
	case sat.Unknown:
		return false, false
	}
	return true, true
}

// equivEngine is the pluggable combinational equivalence engine. The
// simulation-guided SAT-sweeping checker in internal/cec installs itself
// here from its package init, so any binary that (transitively) imports
// internal/cec upgrades Equivalent from the plain per-output miter below to
// the sweeping engine. The indirection exists because cec builds on this
// package and Go forbids the reverse import.
var equivEngine func(a, b *AIG, budget int64) (equal, proven bool)

// RegisterEquivalenceEngine installs the engine Equivalent delegates to.
// Intended to be called from a package init (internal/cec does); later
// registrations replace earlier ones.
func RegisterEquivalenceEngine(f func(a, b *AIG, budget int64) (equal, proven bool)) {
	equivEngine = f
}

// Equivalent checks combinational equivalence of two AIGs with identical PI
// counts and PO counts with the given per-output conflict budget, returning
// (equivalent, proven). It is a thin shim: when the SAT-sweeping engine from
// internal/cec is registered it does the work; otherwise the basic
// output-by-output miter below runs.
func Equivalent(a, b *AIG, budget int64) (bool, bool) {
	if eng := equivEngine; eng != nil {
		return eng(a, b, budget)
	}
	return equivalentMiter(a, b, budget)
}

// equivalentMiter is the fallback engine: a joint miter checked output by
// output with independent SAT calls and no simulation guidance.
func equivalentMiter(a, b *AIG, budget int64) (bool, bool) {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return false, true
	}
	// Build a joint miter graph: copy both into one AIG over shared PIs.
	m := New("miter")
	pis := make([]Lit, a.NumPIs())
	for i := range pis {
		pis[i] = m.AddPI(a.PIName(i))
	}
	la := copyInto(a, m, pis)
	lb := copyInto(b, m, pis)
	for i := 0; i < a.NumPOs(); i++ {
		eq, proven := ProveEqual(m, la[i], lb[i], budget)
		if !proven {
			return false, false
		}
		if !eq {
			return false, true
		}
	}
	return true, true
}

// copyInto replicates src's logic into dst over the provided PI literals and
// returns dst literals for src's POs.
func copyInto(src, dst *AIG, pis []Lit) []Lit {
	m := make([]Lit, src.NumVars())
	m[0] = False
	for i := 0; i < src.NumPIs(); i++ {
		m[i+1] = pis[i]
	}
	for v := src.NumPIs() + 1; v < src.NumVars(); v++ {
		f0, f1 := src.Fanins(v)
		a := m[f0.Var()].NotIf(f0.IsCompl())
		b := m[f1.Var()].NotIf(f1.IsCompl())
		m[v] = dst.And(a, b)
	}
	out := make([]Lit, src.NumPOs())
	for i := 0; i < src.NumPOs(); i++ {
		po := src.PO(i)
		out[i] = m[po.Var()].NotIf(po.IsCompl())
	}
	return out
}
