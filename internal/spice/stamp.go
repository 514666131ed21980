package spice

import (
	"repro/internal/device"
)

// stamper is the one matrix target elements stamp through. Values live in
// vals, addressed by slot: row-major i*n+j on the dense backend, the CSC
// value index on the sparse one. Element stamp order and each element's
// Add-call sequence depend only on topology and the analysis mode (mode 1:
// transient, capacitor companions active; mode 0: DC), never on values, so
// each stamp is resolved to its slot once: while seq is nil the stamper
// captures (i, j, v) in call order for its owner to resolve — into the
// solver's slot sequence, the sparsity pattern, or a forensic dense matrix
// — and afterwards the k-th Add of a pass lands on the k-th recorded slot.
type stamper struct {
	vals     []float64
	seq      []int32 // recorded slot sequence; nil while capturing
	k        int     // next position in seq
	captured []capturedStamp
}

type capturedStamp struct {
	i, j int32
	v    float64
}

// Add adds v to matrix entry (i, j). A replay that runs past seq means an
// element stamped a value-dependent pattern — a bug; it panics on the index,
// and solverState.endStamp catches the short case.
func (s *stamper) Add(i, j int, v float64) {
	if s.seq == nil {
		s.captured = append(s.captured, capturedStamp{int32(i), int32(j), v})
		return
	}
	s.vals[s.seq[s.k]] += v
	s.k++
}

// drain hands every captured stamp to fn, in call order, and empties the
// capture list.
func (s *stamper) drain(fn func(i, j int, v float64)) {
	for _, c := range s.captured {
		fn(int(c.i), int(c.j), c.v)
	}
	s.captured = s.captured[:0]
}

// stampCtx carries the MNA system being assembled for one Newton iteration.
type stampCtx struct {
	g     *stamper  // conductance/incidence matrix
	b     []float64 // right-hand side
	x     []float64 // current Newton iterate (node voltages + branch currents)
	prev  []float64 // previous-timestep solution (nil for DC)
	time  float64   // current time (s); 0 for DC
	dt    float64   // timestep (s); 0 for DC
	nNode int       // number of node-voltage unknowns
	gmin  float64   // convergence-aid conductance to ground
	temp  float64   // simulation temperature (K)
}

// volt returns the voltage of a node in the solution vector x.
func volt(x []float64, n NodeID) float64 {
	if n == Ground {
		return 0
	}
	return x[n]
}

// addG stamps a conductance between two nodes.
func (ctx *stampCtx) addG(a, b NodeID, g float64) {
	if a != Ground {
		ctx.g.Add(int(a), int(a), g)
	}
	if b != Ground {
		ctx.g.Add(int(b), int(b), g)
	}
	if a != Ground && b != Ground {
		ctx.g.Add(int(a), int(b), -g)
		ctx.g.Add(int(b), int(a), -g)
	}
}

// addI stamps a current source of value i flowing from node "from" into node
// "to" (i.e. i is extracted from "from" and injected into "to").
func (ctx *stampCtx) addI(from, to NodeID, i float64) {
	if from != Ground {
		ctx.b[from] -= i
	}
	if to != Ground {
		ctx.b[to] += i
	}
}

type resistor struct {
	a, b NodeID
	r    float64
}

func (r *resistor) stamp(ctx *stampCtx) {
	ctx.addG(r.a, r.b, 1.0/r.r)
}

type capacitor struct {
	a, b NodeID
	c    float64
}

func (c *capacitor) stamp(ctx *stampCtx) {
	if ctx.dt <= 0 {
		return // open circuit at DC
	}
	// Backward-Euler companion: i = C/dt*(v - vPrev) -> conductance C/dt in
	// parallel with a history current source.
	geq := c.c / ctx.dt
	vp := volt(ctx.prev, c.a) - volt(ctx.prev, c.b)
	ctx.addG(c.a, c.b, geq)
	// History term: inject geq*vp from b into a.
	ctx.addI(c.b, c.a, geq*vp)
}

type vsource struct {
	pos, neg NodeID
	branch   int
	fn       SourceFn
}

func (v *vsource) stamp(ctx *stampCtx) {
	k := ctx.nNode + v.branch
	if v.pos != Ground {
		ctx.g.Add(int(v.pos), k, 1)
		ctx.g.Add(k, int(v.pos), 1)
	}
	if v.neg != Ground {
		ctx.g.Add(int(v.neg), k, -1)
		ctx.g.Add(k, int(v.neg), -1)
	}
	ctx.b[k] += v.fn(ctx.time)
}

// clamp is a switchable conductance to a target voltage: i = g(t)*(v - vt).
// With g = 0 it vanishes. Used to force bistable circuits onto a chosen
// branch before re-solving unaided.
type clamp struct {
	node NodeID
	vt   float64
	g    SourceFn
}

func (cl *clamp) stamp(ctx *stampCtx) {
	if cl.node == Ground {
		return
	}
	// Stamp unconditionally, even when g(t) = 0: the Add-call sequence of
	// every element must depend only on topology and analysis mode so the
	// recorded slot sequence (solverState.seq) replays exactly. Adding a
	// zero is free; branching on the value would derail the replay.
	g := cl.g(ctx.time)
	ctx.g.Add(int(cl.node), int(cl.node), g)
	ctx.b[cl.node] += g * cl.vt
}

type isource struct {
	from, to NodeID
	fn       SourceFn
}

func (s *isource) stamp(ctx *stampCtx) {
	ctx.addI(s.from, s.to, s.fn(ctx.time))
}

// mosfet stamps the linearized cryogenic compact model plus its Meyer-style
// device capacitances.
type mosfet struct {
	m          *device.Model
	d, g, s, b NodeID
}

func (t *mosfet) stamp(ctx *stampCtx) {
	vd := volt(ctx.x, t.d)
	vg := volt(ctx.x, t.g)
	vs := volt(ctx.x, t.s)
	vgs := vg - vs
	vds := vd - vs

	ids, gm, gds := t.m.Conductances(vgs, vds, ctx.temp)

	// Linearized drain current: i = ids + gm*(dvgs) + gds*(dvds).
	// Equivalent current source for the Newton companion.
	ieq := ids - gm*vgs - gds*vds

	// gds between d and s.
	ctx.addG(t.d, t.s, gds)
	// gm as a voltage-controlled current source d<-s controlled by (g,s).
	if t.d != Ground {
		if t.g != Ground {
			ctx.g.Add(int(t.d), int(t.g), gm)
		}
		if t.s != Ground {
			ctx.g.Add(int(t.d), int(t.s), -gm)
		}
	}
	if t.s != Ground {
		if t.g != Ground {
			ctx.g.Add(int(t.s), int(t.g), -gm)
		}
		ctx.g.Add(int(t.s), int(t.s), gm)
	}
	// ieq flows from drain to source inside the device.
	ctx.addI(t.d, t.s, ieq)

	// Device capacitances (bias-averaged Meyer split) — only in transient.
	if ctx.dt > 0 {
		cg := t.m.GateCap(ctx.temp)
		cj := t.m.JunctionCap(ctx.temp)
		stampCap := func(a, b NodeID, c float64) {
			geq := c / ctx.dt
			vp := volt(ctx.prev, a) - volt(ctx.prev, b)
			ctx.addG(a, b, geq)
			ctx.addI(b, a, geq*vp)
		}
		stampCap(t.g, t.s, cg/2)
		stampCap(t.g, t.d, cg/2)
		stampCap(t.d, t.b, cj)
		stampCap(t.s, t.b, cj)
	}
}
