package spice

import (
	"fmt"
	"math"
)

// maxTranSteps bounds the fixed-step count of one transient analysis. The
// waveform is preallocated, so a window of absurdly many steps (or one
// whose step count overflows an int) is rejected up front instead of
// failing the allocation.
const maxTranSteps = 1_000_000

// Waveform holds the sampled results of a transient analysis.
type Waveform struct {
	Time    []float64
	circuit *Circuit
	// n is the solution-vector length; data holds the full solution
	// vector at Time[i] in data[i*n : (i+1)*n].
	n    int
	data []float64
}

// sample returns the solution vector at Time[i].
func (w *Waveform) sample(i int) []float64 {
	return w.data[i*w.n : (i+1)*w.n : (i+1)*w.n]
}

// Transient runs a transient analysis from 0 to tstop with the given fixed
// timestep. The initial condition is the DC operating point with the sources
// evaluated at t = 0.
func (c *Circuit) Transient(tstop, dt float64) (*Waveform, error) {
	return c.TransientFrom(nil, tstop, dt)
}

// TransientFrom is Transient with the initial operating-point solve seeded
// from guess — the characterization warm start: neighboring sweep points
// share (or nearly share) their DC state, so seeding skips most of the gmin
// ladder. A guess of the wrong length (or nil) is ignored.
func (c *Circuit) TransientFrom(guess []float64, tstop, dt float64) (*Waveform, error) {
	if !(dt > 0) || !(tstop > 0) || math.IsInf(dt, 1) || math.IsInf(tstop, 1) {
		return nil, fmt.Errorf("spice: invalid transient window tstop=%g dt=%g", tstop, dt)
	}
	nsteps := tstop/dt + 0.5
	if !(nsteps <= maxTranSteps) {
		return nil, fmt.Errorf("spice: transient window tstop=%g dt=%g needs %.3g steps, more than %d", tstop, dt, nsteps, maxTranSteps)
	}
	steps := int(nsteps)
	n := c.systemSize()
	if len(guess) != n {
		guess = nil
	}
	wf := &Waveform{
		Time:    make([]float64, steps+1),
		circuit: c,
		n:       n,
		data:    make([]float64, (steps+1)*n),
	}
	if err := c.opAt(wf.sample(0), 0, nil, 0, guess); err != nil {
		return nil, fmt.Errorf("spice: initial operating point: %w", err)
	}
	var sub []float64 // quarter-step scratch, allocated on the first retry
	for i := 1; i <= steps; i++ {
		t := float64(i) * dt
		wf.Time[i] = t
		x, next := wf.sample(i-1), wf.sample(i)
		err := c.opAt(next, t, x, dt, x)
		if err == nil {
			continue
		}
		// Retry the step at a quarter of the stride for robustness around
		// sharp input edges, alternating between the scratch and the
		// step's own row so the fourth sub-step lands in the row.
		if sub == nil {
			sub = make([]float64, n)
		}
		fine := dt / 4
		cur := x
		for j := 1; j <= 4; j++ {
			dst := sub
			if j%2 == 0 {
				dst = next
			}
			if c.opAt(dst, t-dt+float64(j)*fine, cur, fine, cur) != nil {
				return nil, fmt.Errorf("spice: transient step at t=%g: %w", t, err)
			}
			cur = dst
		}
	}
	return wf, nil
}

// InitialOp returns a copy of the t = 0 operating-point solution vector —
// the warm-start seed a neighboring sweep point passes to TransientFrom
// when the circuits share node ordering (same builder, different values).
func (w *Waveform) InitialOp() []float64 {
	if len(w.Time) == 0 {
		return nil
	}
	return append([]float64(nil), w.sample(0)...)
}

// V returns the voltage waveform at the named node.
func (w *Waveform) V(node string) []float64 {
	id := w.circuit.Node(node)
	out := make([]float64, len(w.Time))
	if id == Ground {
		return out
	}
	return w.column(int(id), out)
}

// BranchCurrent returns the current waveform through the voltage source with
// the given branch index, in the MNA convention (positive current flows from
// the pos terminal through the source to the neg terminal).
func (w *Waveform) BranchCurrent(branch int) []float64 {
	return w.column(w.circuit.NumNodes()+branch, make([]float64, len(w.Time)))
}

// column fills out with unknown k of every sample.
func (w *Waveform) column(k int, out []float64) []float64 {
	for i := range out {
		out[i] = w.sample(i)[k]
	}
	return out
}

// SupplyEnergy integrates the energy delivered by the voltage source with
// the given branch index over the full waveform, in joules. For a supply,
// delivered current flows out of the pos terminal, which is the negative of
// the MNA branch current.
func (w *Waveform) SupplyEnergy(branch int, fn SourceFn) float64 {
	cur := w.BranchCurrent(branch)
	var e float64
	for i := 1; i < len(w.Time); i++ {
		dt := w.Time[i] - w.Time[i-1]
		p0 := -cur[i-1] * fn(w.Time[i-1])
		p1 := -cur[i] * fn(w.Time[i])
		e += 0.5 * (p0 + p1) * dt
	}
	return e
}

// CrossTime returns the first time after "after" at which the signal crosses
// the threshold in the requested direction, using linear interpolation. The
// second return value reports whether a crossing was found.
func (w *Waveform) CrossTime(signal []float64, threshold float64, rising bool, after float64) (float64, bool) {
	for i := 1; i < len(w.Time); i++ {
		if w.Time[i] < after {
			continue
		}
		a, b := signal[i-1], signal[i]
		var hit bool
		if rising {
			hit = a < threshold && b >= threshold
		} else {
			hit = a > threshold && b <= threshold
		}
		if hit {
			frac := (threshold - a) / (b - a)
			return w.Time[i-1] + frac*(w.Time[i]-w.Time[i-1]), true
		}
	}
	return 0, false
}

// TransitionTime returns the time the signal takes to move between the low
// and high measurement thresholds (in either direction), searching after the
// given time. It reports false when the transition is not found.
func (w *Waveform) TransitionTime(signal []float64, vLow, vHigh float64, rising bool, after float64) (float64, bool) {
	if rising {
		t0, ok0 := w.CrossTime(signal, vLow, true, after)
		if !ok0 {
			return 0, false
		}
		t1, ok1 := w.CrossTime(signal, vHigh, true, t0)
		if !ok1 {
			return 0, false
		}
		return t1 - t0, true
	}
	t0, ok0 := w.CrossTime(signal, vHigh, false, after)
	if !ok0 {
		return 0, false
	}
	t1, ok1 := w.CrossTime(signal, vLow, false, t0)
	if !ok1 {
		return 0, false
	}
	return t1 - t0, true
}

// Final returns the last sampled value of the signal.
func (w *Waveform) Final(signal []float64) float64 {
	if len(signal) == 0 {
		return 0
	}
	return signal[len(signal)-1]
}
