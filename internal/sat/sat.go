// Package sat implements a compact CDCL SAT solver with two-watched-literal
// propagation, first-UIP conflict learning, VSIDS-style activity ordering,
// and restarts. It is the reasoning engine behind the don't-care-based
// resubstitution (mfs) and the combinational equivalence checks used to
// validate every optimization pass, mirroring the role SAT solvers play
// inside ABC.
package sat

import "repro/internal/obs"

// Lit is a literal: variable<<1 | sign (sign 1 = negated). Variables are
// 0-based.
type Lit int32

// L builds a literal from a 0-based variable and a negation flag.
func L(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 != 0 }

// Not returns the complement.
func (l Lit) Not() Lit { return l ^ 1 }

// Status is a solver verdict.
type Status int

// Solver verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// noClause is the reason of decisions, assumptions and root-level units.
const noClause = int32(-1)

// Solver is a CDCL SAT solver. Zero value is not usable; call New.
//
// Clauses live back to back in one solver-owned arena: a header literal
// holding the clause length, then the literals. A clause is named by the
// arena offset of its header, so adding a clause appends to a slice instead
// of allocating an object, and Reset makes all of that storage reusable.
type Solver struct {
	arena    []Lit
	watches  [][]int32 // literal -> watching clauses (arena offsets)
	assign   []int8    // var -> 0 unassigned, +1 true, -1 false
	level    []int32   // var -> decision level
	reasons  []int32   // var -> antecedent clause, or noClause
	activity []float64
	polarity []bool // phase saving
	seen     []bool // analyze scratch; all false between calls
	learnt   []Lit  // analyze scratch
	heap     varHeap
	trail    []Lit
	trailLim []int
	qhead    int
	varInc   float64

	// ConflictBudget bounds the search effort; <0 means unlimited.
	ConflictBudget int64
	conflicts      int64
	rootUnsat      bool
}

// New returns a solver pre-sized for n variables.
func New(n int) *Solver {
	s := &Solver{varInc: 1, ConflictBudget: -1}
	s.Grow(n)
	return s
}

// Reset empties the solver: afterwards it is equivalent to New(0) — no
// variables, no clauses, an unlimited budget, and the same decisions on
// any later input — but it keeps its arena, watch lists and per-variable
// arrays, so a solver reset between many small queries stops allocating
// once those have grown to the largest query.
func (s *Solver) Reset() {
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	s.arena = s.arena[:0]
	s.watches = s.watches[:0]
	s.assign = s.assign[:0]
	s.level = s.level[:0]
	s.reasons = s.reasons[:0]
	s.activity = s.activity[:0]
	s.polarity = s.polarity[:0]
	s.seen = s.seen[:0]
	s.heap.data = s.heap.data[:0]
	s.heap.indices = s.heap.indices[:0]
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.varInc = 1
	s.ConflictBudget = -1
	s.conflicts = 0
	s.rootUnsat = false
}

// Grow ensures the solver knows about at least n variables.
func (s *Solver) Grow(n int) {
	for len(s.assign) < n {
		s.assign = append(s.assign, 0)
		s.level = append(s.level, 0)
		s.reasons = append(s.reasons, noClause)
		s.activity = append(s.activity, 0)
		s.polarity = append(s.polarity, false)
		s.seen = append(s.seen, false)
		if w := len(s.watches); w+2 <= cap(s.watches) {
			// Reslice over the lists Reset emptied, keeping their arrays.
			s.watches = s.watches[:w+2]
		} else {
			s.watches = append(s.watches, nil, nil)
		}
		s.heap.push(s, len(s.assign)-1)
	}
}

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return len(s.assign) }

// AddVar adds a fresh variable and returns its index.
func (s *Solver) AddVar() int {
	s.Grow(len(s.assign) + 1)
	return len(s.assign) - 1
}

func (s *Solver) value(l Lit) int8 {
	v := s.assign[l.Var()]
	if l.Neg() {
		return -v
	}
	return v
}

// lits returns the literals of the clause at arena offset cr.
func (s *Solver) lits(cr int32) []Lit {
	end := cr + 1 + int32(s.arena[cr])
	return s.arena[cr+1 : end : end]
}

// newClause copies lits into the arena and returns the clause's offset.
func (s *Solver) newClause(lits []Lit) int32 {
	cr := len(s.arena)
	if cr+1+len(lits) > 1<<31-1 {
		panic("sat: clause arena exceeds 2^31 literals")
	}
	s.arena = append(s.arena, Lit(len(lits)))
	s.arena = append(s.arena, lits...)
	return int32(cr)
}

// AddClause adds a clause; it returns false if the formula became trivially
// unsatisfiable (the solver then answers Unsat from Solve as well). It may
// be called between Solve calls: the solver first backtracks to the root
// level, and since clauses are only ever added (never removed), incremental
// strengthening of the formula is sound. This is what the equivalence
// checker's SAT sweeping relies on to encode AIG cones lazily across many
// prove/refute queries on one solver. The literals of lits are sorted and
// compacted in place; the solver keeps its own copy.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.rootUnsat {
		return false
	}
	s.cancelUntil(0)
	// Deduplicate and detect tautology. Clauses are a few literals long,
	// so an insertion sort is the cheapest way to order them.
	for i := 1; i < len(lits); i++ {
		for j := i; j > 0 && lits[j] < lits[j-1]; j-- {
			lits[j], lits[j-1] = lits[j-1], lits[j]
		}
	}
	out := lits[:0]
	var prev Lit = -1
	for _, l := range lits {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() && l.Var() == prev.Var() {
			return true // tautology
		}
		// Drop already-false root-level literals; satisfied clause is a no-op.
		if len(s.trailLim) == 0 {
			switch s.value(l) {
			case 1:
				return true
			case -1:
				continue
			}
		}
		out = append(out, l)
		prev = l
	}
	lits = out
	switch len(lits) {
	case 0:
		s.rootUnsat = true
		return false
	case 1:
		if s.value(lits[0]) == -1 {
			s.rootUnsat = true
			return false
		}
		if s.value(lits[0]) == 0 {
			s.enqueue(lits[0], noClause)
			if s.propagate() != noClause {
				s.rootUnsat = true
				return false
			}
		}
		return true
	}
	s.attach(s.newClause(lits))
	return true
}

func (s *Solver) attach(cr int32) {
	lits := s.lits(cr)
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], cr)
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], cr)
}

func (s *Solver) enqueue(l Lit, from int32) {
	v := l.Var()
	if l.Neg() {
		s.assign[v] = -1
	} else {
		s.assign[v] = 1
	}
	s.level[v] = int32(len(s.trailLim))
	s.reasons[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause or
// noClause.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		confl := noClause
		for wi := 0; wi < len(ws); wi++ {
			cr := ws[wi]
			if confl != noClause {
				kept = append(kept, cr)
				continue
			}
			lits := s.lits(cr)
			// Ensure the falsified literal is lits[1].
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if s.value(lits[0]) == 1 {
				kept = append(kept, cr)
				continue
			}
			// Search replacement watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != -1 {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], cr)
					found = true
					break
				}
			}
			if found {
				continue
			}
			kept = append(kept, cr)
			if s.value(lits[0]) == -1 {
				confl = cr
				continue
			}
			s.enqueue(lits[0], cr)
		}
		s.watches[p] = kept
		if confl != noClause {
			return confl
		}
	}
	return noClause
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	back := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= back; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assign[v] == 1
		s.assign[v] = 0
		s.reasons[v] = noClause
		s.heap.push(s, v)
	}
	s.trail = s.trail[:back]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = back
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.heap.rebuild(s)
		return
	}
	s.heap.bump(s, v)
}

// analyze performs first-UIP learning, returning the learnt clause and the
// backtrack level. The clause is the solver's scratch buffer: it is valid
// until the next analyze.
func (s *Solver) analyze(confl int32) ([]Lit, int) {
	learnt := append(s.learnt[:0], 0) // slot 0 takes the asserting literal
	counter := 0
	p := Lit(-1)
	idx := len(s.trail) - 1
	for {
		for _, q := range s.lits(confl) {
			if p >= 0 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find next literal to expand on the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Not()
			break
		}
		confl = s.reasons[v]
	}
	// Every current-level variable was expanded and unmarked above; the
	// lower-level ones are exactly learnt[1:].
	for _, q := range learnt[1:] {
		s.seen[q.Var()] = false
	}
	s.learnt = learnt
	// Backtrack level: second-highest level in the clause.
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = int(s.level[learnt[1].Var()])
	}
	return learnt, bt
}

func (s *Solver) pickBranch() (Lit, bool) {
	for {
		v, ok := s.heap.popMax(s)
		if !ok {
			return 0, false
		}
		if s.assign[v] == 0 {
			return L(v, !s.polarity[v]), true
		}
	}
}

// Solve searches for a satisfying assignment under the given assumptions.
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.conflicts = 0
	if obs.MetricsEnabled() {
		// Batched at call granularity: one counter bump per Solve, plus the
		// conflict total accumulated during this search, flushed on return.
		obs.C("sat.solves").Inc()
		defer func() { obs.C("sat.conflicts").Add(s.conflicts) }()
	}
	if s.rootUnsat {
		return Unsat
	}
	s.cancelUntil(0)
	if s.propagate() != noClause {
		return Unsat
	}
	restartLimit := int64(100)

	// Apply assumptions as pseudo-decisions.
	for _, a := range assumptions {
		switch s.value(a) {
		case -1:
			s.cancelUntil(0)
			return Unsat
		case 1:
			continue
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(a, noClause)
		if s.propagate() != noClause {
			s.cancelUntil(0)
			return Unsat
		}
	}
	assumeLvl := s.decisionLevel()

	for {
		confl := s.propagate()
		if confl != noClause {
			s.conflicts++
			if s.ConflictBudget >= 0 && s.conflicts > s.ConflictBudget {
				s.cancelUntil(0)
				return Unknown
			}
			if s.decisionLevel() <= assumeLvl {
				s.cancelUntil(0)
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			if bt < assumeLvl {
				bt = assumeLvl
			}
			s.cancelUntil(bt)
			if len(learnt) == 1 && s.decisionLevel() == 0 {
				if s.value(learnt[0]) == -1 {
					return Unsat
				}
				if s.value(learnt[0]) == 0 {
					s.enqueue(learnt[0], noClause)
				}
			} else {
				cr := s.newClause(learnt)
				if len(learnt) >= 2 {
					s.attach(cr)
				}
				if s.value(learnt[0]) == 0 {
					s.enqueue(learnt[0], cr)
				}
			}
			s.varInc /= 0.95
			if s.conflicts%restartLimit == 0 {
				restartLimit += restartLimit / 2
				s.cancelUntil(assumeLvl)
			}
			continue
		}
		l, ok := s.pickBranch()
		if !ok {
			return Sat
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(l, noClause)
	}
}

// Value returns the model value of a variable after Sat (true/false); only
// meaningful immediately after a Sat result.
func (s *Solver) Value(v int) bool { return s.assign[v] == 1 }
