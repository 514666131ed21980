package spice

import (
	"fmt"
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// SolverKind selects the linear-solver backend for a circuit's MNA system.
type SolverKind int

const (
	// SolverAuto uses the sparse solver except for tiny systems, where the
	// dense path's lower constant wins.
	SolverAuto SolverKind = iota
	// SolverDense forces dense LU — the cross-check oracle.
	SolverDense
	// SolverSparse forces sparse LU regardless of size.
	SolverSparse
)

// denseCutoff is the auto-mode system size at or below which dense LU is
// used: below ~8 unknowns the sparse bookkeeping costs more than it saves.
const denseCutoff = 8

// pivotTau is the threshold-pivoting relaxation for the sparse LU: rows
// within 10% of the column maximum are acceptable pivots, letting the
// Markowitz tie-break pick the sparsest. MNA systems carry gmin on every
// node diagonal, so this is comfortably stable.
const pivotTau = 0.1

// solverState is the per-circuit solver scratch: the assembled matrix (one
// backend), the reusable factorization, the stamping context and the
// vectors the Newton loop writes into. It is rebuilt whenever the circuit's
// topology (element count or unknown count) changes, which freezes the
// sparsity pattern per topology exactly once. A converged transient step
// allocates nothing.
type solverState struct {
	n, nNode int
	nelems   int
	kind     SolverKind
	dense    bool

	gd  *linalg.Matrix // dense backend
	dlu *linalg.LU     // dense factorization storage
	sp  *linalg.Sparse // sparse backend (compiled pattern)
	lu  *linalg.SparseLU

	// seq[mode] is the recorded slot sequence of one full stamping pass in
	// that analysis mode (see stamper) — the per-topology index map, so
	// every stamp after the first pass is an O(1) indexed add on either
	// backend instead of a binary search in the CSC column.
	seq [2][]int32
	mat stamper
	ctx stampCtx

	b     []float64 // right-hand side
	resid []float64 // G*x scratch for the residual scan
	xNew  []float64 // Newton proposal
	saved []float64 // restart point a failed Newton attempt falls back to
}

func stampMode(tran bool) int {
	if tran {
		return 1
	}
	return 0
}

// beginStamp clears the system and returns the matrix to stamp into: a
// replay of the mode's recorded slot sequence, or a capture on the mode's
// first pass. The caller must finish the pass with endStamp.
func (st *solverState) beginStamp(tran bool) *stamper {
	clear(st.mat.vals)
	clear(st.b)
	st.mat.seq = st.seq[stampMode(tran)]
	st.mat.k = 0
	return &st.mat
}

// endStamp resolves and records a capture pass, or verifies a replay
// consumed exactly the recorded sequence.
func (st *solverState) endStamp(tran bool) {
	m := &st.mat
	if m.seq != nil {
		if m.k != len(m.seq) {
			panic("spice: stamp sequence diverged from recorded pattern — value-dependent stamping?")
		}
		return
	}
	seq := make([]int32, 0, len(m.captured))
	m.drain(func(i, j int, v float64) {
		s := st.slot(i, j)
		seq = append(seq, int32(s))
		m.vals[s] += v
	})
	st.seq[stampMode(tran)] = seq
}

// slot resolves entry (i, j) to its index in the active backend's values.
func (st *solverState) slot(i, j int) int {
	if st.dense {
		return i*st.n + j
	}
	s := st.sp.Slot(i, j)
	if s < 0 {
		panic(fmt.Sprintf("spice: stamp (%d,%d) outside the discovered sparsity pattern", i, j))
	}
	return s
}

// mulVecInto computes dst = G*x on whichever backend is active.
func (st *solverState) mulVecInto(dst, x []float64) {
	if st.dense {
		st.gd.MulVecInto(dst, x)
	} else {
		st.sp.MulVecInto(dst, x)
	}
}

// solverFor returns the circuit's solver state, (re)building it when the
// topology changed since the last solve. Building the sparse state runs one
// pattern-discovery stamp with every conditional element forced on (dt > 0
// for capacitor companions, clamps enabled), so the compiled pattern is a
// superset of anything any analysis mode will ever write.
func (c *Circuit) solverFor() *solverState {
	n := c.systemSize()
	if st := c.solver; st != nil && st.n == n && st.nelems == len(c.elems) && st.kind == c.Solver {
		return st
	}
	nNode := len(c.names)
	st := &solverState{
		n: n, nNode: nNode, nelems: len(c.elems), kind: c.Solver,
		b:     make([]float64, n),
		resid: make([]float64, n),
		xNew:  make([]float64, n),
		saved: make([]float64, n),
	}
	st.dense = c.Solver == SolverDense || (c.Solver == SolverAuto && n <= denseCutoff)
	if st.dense {
		st.gd = linalg.NewMatrix(n)
		st.dlu = linalg.NewLU(n)
		st.mat.vals = st.gd.A
		obs.C("spice.solver.dense_builds").Inc()
	} else {
		pat := linalg.NewPattern(n)
		zero := make([]float64, n)
		st.ctx = stampCtx{
			g: &st.mat, b: st.b, x: zero, prev: zero,
			time: 0, dt: 1e-12, nNode: nNode, temp: c.Temp,
		}
		for _, e := range c.elems {
			e.stamp(&st.ctx)
		}
		st.mat.drain(func(i, j int, _ float64) { pat.Add(i, j) })
		// The gmin convergence aid lands on every node diagonal.
		for i := 0; i < nNode; i++ {
			pat.Add(i, i)
		}
		st.sp = pat.Compile()
		st.mat.vals = st.sp.Vals
		clear(st.b)
		obs.C("spice.solver.pattern_builds").Inc()
	}
	c.solver = st
	return st
}

// solve factors the assembled system and solves it into st.xNew. On the
// sparse path the symbolic factorization is computed once per pattern and
// reused via in-place numeric refactorization; a pivot that drifted
// numerically triggers one full re-pivot before giving up.
func (st *solverState) solve() error {
	if st.dense {
		if err := st.dlu.Refactor(st.gd); err != nil {
			return err
		}
		st.dlu.SolveInto(st.xNew, st.b)
		return nil
	}
	metrics := obs.MetricsEnabled()
	var t0 time.Time
	if metrics {
		t0 = time.Now()
	}
	if st.lu == nil {
		lu, err := st.sp.Factor(pivotTau)
		if err != nil {
			return err
		}
		st.lu = lu
		obs.C("spice.solver.symbolic.builds").Inc()
		obs.G("spice.solver.fillin").Set(float64(lu.FillIn()))
	} else if err := st.lu.Refactor(); err != nil {
		obs.C("spice.solver.repivots").Inc()
		lu, err2 := st.sp.Factor(pivotTau)
		if err2 != nil {
			return err2
		}
		st.lu = lu
		obs.G("spice.solver.fillin").Set(float64(lu.FillIn()))
	} else {
		obs.C("spice.solver.symbolic.reuse").Inc()
	}
	if metrics {
		obs.H("spice.solver.factor.seconds").Observe(time.Since(t0).Seconds())
		t0 = time.Now()
	}
	st.lu.SolveInto(st.xNew, st.b)
	if metrics {
		obs.H("spice.solver.solve.seconds").Observe(time.Since(t0).Seconds())
	}
	return nil
}
