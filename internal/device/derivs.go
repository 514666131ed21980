package device

import (
	"math"
)

// tempCache holds temperature-derived model quantities so that repeated
// evaluations at a fixed simulation temperature (the common case inside a
// SPICE run) avoid recomputing powers and exponentials.
type tempCache struct {
	temp   float64 // temperature this cache is valid for
	vt     float64 // band-tail-limited thermal voltage
	nvt    float64 // N0*vt: the subthreshold slope voltage
	vth    float64 // zero-bias threshold at temp
	mu     float64 // low-field mobility at temp
	cg     float64 // total gate capacitance (F), see GateCap
	ispec0 float64 // 2*n*mu*Cox*(W/L)*vt^2 before Theta degradation
	floorA float64 // leakage-floor amplitude (A)
	floorK float64 // leakage-floor bias shape factor (1/V)
}

func (m *Model) cacheFor(tempK float64) *tempCache {
	if m.tc != nil && m.tc.temp == tempK {
		return m.tc
	}
	p := &m.P
	c := &tempCache{temp: tempK}
	c.vt = p.thermalVoltageEff(tempK)
	c.nvt = p.N0 * c.vt
	c.vth = p.Vth(tempK)
	c.mu = p.Mobility(tempK)
	capF := p.GateCapFactor(tempK)
	cox := p.CoxA * capF
	w := p.Weff()
	c.cg = p.CoxA*capF*w*p.L + p.CFr*w
	c.ispec0 = 2 * p.N0 * c.mu * cox * (w / p.L) * c.vt * c.vt
	c.floorA = p.IFloor * w
	c.floorK = 1.5 / p.VddRef
	m.tc = c
	return c
}

// softplus returns ln(1+e^x) and its derivative, the logistic function
// 1/(1+e^-x), given ex = e^x. Beyond |x| > 40 it switches to the
// asymptotes (x, 1) above and (e^x, e^x) below, which keeps both finite
// without touching ex when it has overflowed.
func softplus(x, ex float64) (ln, sig float64) {
	if x > 40 {
		return x, 1
	}
	if x < -40 {
		return ex, ex // ~0, keeps the derivative finite
	}
	return math.Log1p(ex), ex / (1 + ex)
}

// derivs evaluates the n-oriented compact model (vds >= 0) returning the
// current and its analytic partial derivatives with respect to vgs and vds.
//
// The model needs ln(1+e^x) and the logistic of x at u/2, w/2 and u, but
// only two exponentials are distinct: e^u is (e^{u/2})^2.
func (m *Model) derivs(vgs, vds, tempK float64) (f, fg, fd float64) {
	p := &m.P
	c := m.cacheFor(tempK)
	nvt := c.nvt
	vth := c.vth - p.DIBL*vds

	u := (vgs - vth) / nvt
	w := u - vds/c.vt
	eu2 := math.Exp(u / 2)
	lf, sf := softplus(u/2, eu2)
	lr, sr := softplus(w/2, math.Exp(w/2))
	F := lf*lf - lr*lr

	dudg := 1 / nvt
	dudd := p.DIBL / nvt
	dwdd := dudd - 1/c.vt

	dFdg := (lf*sf - lr*sr) * dudg
	dFdd := lf*sf*dudd - lr*sr*dwdd

	// Vertical-field mobility degradation.
	lu, su := softplus(u, eu2*eu2)
	vov := nvt * lu
	D := 1 + p.Theta*vov
	K := c.ispec0 / D
	dKdg := -c.ispec0 * p.Theta * su / (D * D) // dvov/dvgs = su
	dKdd := -c.ispec0 * p.Theta * su * p.DIBL / (D * D)

	clm := 1 + p.Lambda*vds
	// Leakage floor: GIDL/junction/gate components that do not freeze out.
	// tanh keeps it odd in Vds (zero current at zero bias, source/drain
	// symmetric) and saturating toward full bias.
	th := math.Tanh(c.floorK * vds)
	floor := c.floorA * th
	dfloor := c.floorA * c.floorK * (1 - th*th)
	f = K*F*clm + floor
	fg = (dKdg*F + K*dFdg) * clm
	fd = (dKdd*F+K*dFdd)*clm + K*F*p.Lambda + dfloor
	return f, fg, fd
}
