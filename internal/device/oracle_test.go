package device

import (
	"math"
	"testing"
)

// The six-exponential formulation of the compact model, kept as the oracle
// for derivs: every ln(1+e^x) and logistic evaluates its own exponential,
// instead of deriving all of them from e^{u/2} and e^{w/2}.

// ln1exp computes ln(1+exp(x)) without overflow.
func ln1exp(x float64) float64 {
	if x > 40 {
		return x
	}
	if x < -40 {
		return math.Exp(x) // ~0, keeps the derivative finite
	}
	return math.Log1p(math.Exp(x))
}

// sigmoid is the logistic function, the derivative of ln1exp.
func sigmoid(x float64) float64 {
	if x > 40 {
		return 1
	}
	if x < -40 {
		return math.Exp(x)
	}
	return 1 / (1 + math.Exp(-x))
}

// derivsOracle is derivs with one exp call per ln1exp/sigmoid.
func (m *Model) derivsOracle(vgs, vds, tempK float64) (f, fg, fd float64) {
	p := &m.P
	c := m.cacheFor(tempK)
	n := p.N0
	nvt := n * c.vt
	vth := c.vth - p.DIBL*vds

	u := (vgs - vth) / nvt
	w := u - vds/c.vt
	lf := ln1exp(u / 2)
	lr := ln1exp(w / 2)
	sf := sigmoid(u / 2)
	sr := sigmoid(w / 2)
	F := lf*lf - lr*lr

	dudg := 1 / nvt
	dudd := p.DIBL / nvt
	dwdd := dudd - 1/c.vt

	dFdg := (lf*sf - lr*sr) * dudg
	dFdd := lf*sf*dudd - lr*sr*dwdd

	su := sigmoid(u)
	vov := nvt * ln1exp(u)
	D := 1 + p.Theta*vov
	K := c.ispec0 / D
	dKdg := -c.ispec0 * p.Theta * su / (D * D)
	dKdd := -c.ispec0 * p.Theta * su * p.DIBL / (D * D)

	clm := 1 + p.Lambda*vds
	th := math.Tanh(c.floorK * vds)
	floor := c.floorA * th
	dfloor := c.floorA * c.floorK * (1 - th*th)
	f = K*F*clm + floor
	fg = (dKdg*F + K*dFdg) * clm
	fd = (dKdd*F+K*dFdd)*clm + K*F*p.Lambda + dfloor
	return f, fg, fd
}

// conductancesOracle is Conductances on top of derivsOracle: the same
// polarity and source/drain-swap chain rules.
func (m *Model) conductancesOracle(vgs, vds, tempK float64) (ids, gm, gds float64) {
	s := 1.0
	if m.Type == PFET {
		vgs, vds = -vgs, -vds
		s = -1.0
	}
	if vds < 0 {
		f, fa, fb := m.derivsOracle(vgs-vds, -vds, tempK)
		return -s * f, -fa, fa + fb
	}
	f, fg, fd := m.derivsOracle(vgs, vds, tempK)
	return s * f, fg, fd
}

// relDiff is |a-b| relative to the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}

// TestDerivsMatchOracle cross-checks the shared-exponential derivs against
// the six-exponential oracle on a dense (Vgs, Vds) grid for n and p
// devices, both Vds signs (source/drain swap) and four temperatures, plus
// biases placed just either side of the |u/2| = 40 and |u| = 40 branch
// thresholds of ln(1+e^x) and the logistic.
func TestDerivsMatchOracle(t *testing.T) {
	const tol = 1e-12
	const nGrid = 280 // per axis; x2 Vds signs
	var worst [3]float64
	points := 0
	check := func(m *Model, vgs, vds, temp float64) {
		got := [3]float64{}
		want := [3]float64{}
		got[0], got[1], got[2] = m.Conductances(vgs, vds, temp)
		want[0], want[1], want[2] = m.conductancesOracle(vgs, vds, temp)
		points++
		for k := range got {
			if math.IsNaN(got[k]) || math.IsInf(got[k], 0) {
				t.Fatalf("%v T=%g vgs=%g vds=%g: non-finite output %v", m.Type, temp, vgs, vds, got)
			}
			r := relDiff(got[k], want[k])
			if r > worst[k] {
				worst[k] = r
			}
			if r > tol {
				t.Fatalf("%v T=%g vgs=%g vds=%g: output %d = %.17g, oracle %.17g (rel %.3g)",
					m.Type, temp, vgs, vds, k, got[k], want[k], r)
			}
		}
	}
	for _, m := range []*Model{NewN(2), NewP(3)} {
		sign := 1.0
		if m.Type == PFET {
			sign = -1
		}
		for _, temp := range []float64{300, 77, 10, 4} {
			// Dense grid over the operating range and beyond, with both
			// Vds polarities (the swapped branch of Conductances).
			for i := 0; i <= nGrid; i++ {
				vgs := -0.3 + 1.3*float64(i)/nGrid
				for j := 0; j <= nGrid; j++ {
					vds := 1.0 * float64(j) / nGrid
					check(m, sign*vgs, sign*vds, temp)
					check(m, sign*vgs, -sign*vds, temp)
				}
			}
			// Biases straddling the branch thresholds: u = ±40 and
			// u/2 = ±40 (u = ±80), a hair either side, on the forward
			// (u) and the reverse (w = u - vds/vt) argument.
			c := m.cacheFor(temp)
			for _, vds := range []float64{0, 0.01, 0.3, 0.7} {
				vth := c.vth - m.P.DIBL*vds
				for _, edge := range []float64{-80, -40, 40, 80} {
					for _, eps := range []float64{-1e-9, -1e-12, 0, 1e-12, 1e-9} {
						u := edge + eps
						check(m, sign*(vth+u*c.nvt), sign*vds, temp)
						// Put w on the edge instead: u = edge + vds/vt.
						uw := edge + eps + vds/c.vt
						check(m, sign*(vth+uw*c.nvt), sign*vds, temp)
					}
				}
			}
		}
	}
	t.Logf("%d points: worst relative difference f %.3g, fg %.3g, fd %.3g", points, worst[0], worst[1], worst[2])
}

// TestCachedCapsMatchFormula pins GateCap/JunctionCap, now read from the
// temperature cache, bit-for-bit to the closed-form expression.
func TestCachedCapsMatchFormula(t *testing.T) {
	for _, m := range []*Model{NewN(1), NewP(4)} {
		for _, temp := range []float64{300, 77, 10, 4, 300} {
			p := &m.P
			w := p.Weff()
			intrinsic := p.CoxA * p.GateCapFactor(temp) * w * p.L
			fringe := p.CFr * w
			want := intrinsic + fringe
			if got := m.GateCap(temp); got != want {
				t.Errorf("%v T=%g: GateCap = %.17g, formula %.17g", m.Type, temp, got, want)
			}
			if got := m.JunctionCap(temp); got != 0.6*want {
				t.Errorf("%v T=%g: JunctionCap = %.17g, formula %.17g", m.Type, temp, got, 0.6*want)
			}
		}
	}
}
