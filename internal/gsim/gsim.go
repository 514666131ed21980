// Package gsim is the gate-level logic simulator of the flow: it executes a
// technology-mapped netlist on concrete stimulus vectors, producing per-net
// toggle counts (the switching activity internal/power signs off with), VCD
// traces, and per-vector primary-output values for functional signoff
// against AIG simulation. It is the flow's only gate-level simulator.
//
// A netlist is first compiled (Compile) into a flat evaluation graph: nets
// become dense indices, every gate carries its PDK truth table (the same
// table the mapper's cut matching and the CEC elaborator use), and fanout
// lists plus topological levels are frozen. Two engines then run behind one
// interface:
//
//   - the levelized engine (levelized.go) evaluates gates in topological
//     order with 64-bit vector parallelism and zero delay — the fast
//     functional/regression mode, and the default activity source of
//     power analysis and the mapped-netlist check in synth.VerifyMapped;
//   - the event-driven engine (event.go) propagates individual value
//     changes through a time-ordered event queue with per-arc transport
//     delays annotated from the characterized liberty tables (delay.go), so
//     hazard glitches — the dynamic-power events a zero-delay model assumes
//     away — are simulated, counted, and dumpable to VCD.
//
// Logic is three-valued (0/1/X). The event engine starts every net at X and
// lets the first stimulus wave resolve the circuit, matching conventional
// gate-level simulator semantics; the levelized engine is two-valued (its
// inputs are always fully specified vectors). See docs/GSIM.md.
package gsim

import (
	"fmt"
	"math/rand"

	"repro/internal/netlist"
)

// Value is a three-valued logic level.
type Value uint8

// Logic values. X is the unknown/uninitialized state.
const (
	V0 Value = iota
	V1
	VX
)

// String renders the value the way VCD does.
func (v Value) String() string {
	switch v {
	case V0:
		return "0"
	case V1:
		return "1"
	default:
		return "x"
	}
}

// Reserved net indices in every compiled model.
const (
	netConst0 = 0
	netConst1 = 1
)

// Gate is one compiled cell instance.
type Gate struct {
	Name  string  // instance name from the netlist
	Cell  string  // library cell name
	Truth uint64  // output truth table over In (bit i of the row = In[i])
	In    []int32 // input net indices
	Out   int32   // output net index
	Level int32   // topological level (inputs/constants are level 0)
	// DelayFs[i] is the input-to-output transport delay of arc i in
	// femtoseconds; nil until Annotate, in which case engines fall back to
	// DefaultDelayFs per arc.
	DelayFs []int64
}

// DefaultDelayFs is the per-arc unit delay (1 ps) used by the event engine
// when the model has not been annotated against a liberty library.
const DefaultDelayFs = 1000

// Model is a netlist compiled for simulation.
type Model struct {
	Name  string
	Nets  []string // net index -> name; [0]=1'b0, [1]=1'b1
	Gates []Gate   // topological order (drivers before loads)

	// Inputs / Outputs are net indices of the primary ports, in the
	// netlist's port order. Output aliases are pre-resolved, so Outputs may
	// repeat indices or point at constants.
	Inputs      []int32
	InputNames  []string
	Outputs     []int32
	OutputNames []string

	// fanouts[net] lists the gates reading the net, in gate order.
	fanouts [][]int32

	nl        *netlist.Netlist
	netIndex  map[string]int32
	annotated bool
}

// Compile flattens a mapped netlist into an evaluation graph. Every cell
// must be combinational with a truth table (≤ 6 inputs) — the same
// restriction the CEC elaborator imposes.
func Compile(nl *netlist.Netlist) (*Model, error) {
	m := &Model{
		Name:     nl.Name,
		Nets:     []string{netlist.Const0, netlist.Const1},
		nl:       nl,
		netIndex: make(map[string]int32, len(nl.Inputs)+len(nl.Gates)+2),
	}
	m.netIndex[netlist.Const0] = netConst0
	m.netIndex[netlist.Const1] = netConst1
	intern := func(name string) int32 {
		if i, ok := m.netIndex[name]; ok {
			return i
		}
		i := int32(len(m.Nets))
		m.Nets = append(m.Nets, name)
		m.netIndex[name] = i
		return i
	}
	for _, in := range nl.Inputs {
		if _, dup := m.netIndex[in]; dup {
			return nil, fmt.Errorf("gsim: duplicate input %q", in)
		}
		idx := intern(in)
		m.Inputs = append(m.Inputs, idx)
		m.InputNames = append(m.InputNames, in)
	}
	driven := make([]bool, len(m.Nets))
	driven[netConst0], driven[netConst1] = true, true
	for _, idx := range m.Inputs {
		driven[idx] = true
	}
	level := make([]int32, len(m.Nets))
	for _, g := range nl.Gates {
		def := nl.Cell(g.Cell)
		if def == nil {
			return nil, fmt.Errorf("gsim: gate %s: unknown cell %q", g.Name, g.Cell)
		}
		if len(def.Outputs) != 1 {
			return nil, fmt.Errorf("gsim: gate %s: cell %s is not single-output", g.Name, g.Cell)
		}
		tt, ok := def.Truth(def.Outputs[0])
		if !ok {
			return nil, fmt.Errorf("gsim: gate %s: cell %s has no truth table (sequential or >6 inputs)", g.Name, g.Cell)
		}
		cg := Gate{Name: g.Name, Cell: g.Cell, Truth: tt, In: make([]int32, len(g.Inputs))}
		var lvl int32
		for i, net := range g.Inputs {
			idx, ok := m.netIndex[net]
			if !ok || !driven[idx] {
				return nil, fmt.Errorf("gsim: gate %s: net %q used before driven", g.Name, net)
			}
			cg.In[i] = idx
			if level[idx] > lvl {
				lvl = level[idx]
			}
		}
		out := intern(g.Output)
		for int(out) >= len(driven) {
			driven = append(driven, false)
			level = append(level, 0)
		}
		if driven[out] {
			return nil, fmt.Errorf("gsim: gate %s: net %q driven twice", g.Name, g.Output)
		}
		driven[out] = true
		level[out] = lvl + 1
		cg.Out = out
		cg.Level = lvl + 1
		m.Gates = append(m.Gates, cg)
	}
	for _, o := range nl.Outputs {
		drv := nl.Resolve(o)
		idx, ok := m.netIndex[drv]
		if !ok || !driven[idx] {
			return nil, fmt.Errorf("gsim: output %q resolves to undriven net %q", o, drv)
		}
		m.Outputs = append(m.Outputs, idx)
		m.OutputNames = append(m.OutputNames, o)
	}
	m.fanouts = make([][]int32, len(m.Nets))
	for gi, g := range m.Gates {
		for _, in := range g.In {
			m.fanouts[in] = append(m.fanouts[in], int32(gi))
		}
	}
	return m, nil
}

// NumNets returns the net count (constants included).
func (m *Model) NumNets() int { return len(m.Nets) }

// NetIndex returns the compiled index of a net name.
func (m *Model) NetIndex(name string) (int, bool) {
	i, ok := m.netIndex[name]
	return int(i), ok
}

// Annotated reports whether per-arc liberty delays have been attached.
func (m *Model) Annotated() bool { return m.annotated }

// Depth returns the maximum gate level.
func (m *Model) Depth() int {
	var d int32
	for i := range m.Gates {
		if m.Gates[i].Level > d {
			d = m.Gates[i].Level
		}
	}
	return int(d)
}

// evalTruth3 evaluates a truth table under three-valued inputs: if every
// input is known it is a direct row lookup; otherwise the X inputs are
// cofactored and the output is X unless both cofactor sets agree.
func evalTruth3(tt uint64, in []Value) Value {
	row := 0
	unknown := 0
	unknownBits := make([]int, 0, 6)
	for i, v := range in {
		switch v {
		case V1:
			row |= 1 << uint(i)
		case VX:
			unknown++
			unknownBits = append(unknownBits, i)
		}
	}
	if unknown == 0 {
		if tt&(1<<uint(row)) != 0 {
			return V1
		}
		return V0
	}
	// Enumerate the 2^unknown completions; stop early once both output
	// values are seen.
	seen0, seen1 := false, false
	for k := 0; k < 1<<uint(unknown); k++ {
		r := row
		for b, bit := range unknownBits {
			if k&(1<<uint(b)) != 0 {
				r |= 1 << uint(bit)
			}
		}
		if tt&(1<<uint(r)) != 0 {
			seen1 = true
		} else {
			seen0 = true
		}
		if seen0 && seen1 {
			return VX
		}
	}
	if seen1 {
		return V1
	}
	return V0
}

// Vector is one primary-input assignment in Model.InputNames order.
type Vector []bool

// RandomVectors draws n uniform random vectors for the model's inputs,
// deterministic for a seed: per 64-vector round, one fresh word per input
// in port order, vector b taking bit b of each word.
func (m *Model) RandomVectors(n int, seed int64) []Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Vector, n)
	for v := range out {
		out[v] = make(Vector, len(m.Inputs))
	}
	for base := 0; base < n; base += 64 {
		for i := range m.Inputs {
			w := rng.Uint64()
			for b := 0; b < 64 && base+b < n; b++ {
				out[base+b][i] = w&(1<<uint(b)) != 0
			}
		}
	}
	return out
}

// Result is the outcome of a simulation run.
type Result struct {
	Engine  string // "levelized" or "event"
	Vectors int

	// Toggles counts 0↔1 transitions per net index over the whole run
	// (transitions out of X are not toggles). The event engine counts every
	// committed change — glitches included; the levelized engine counts one
	// per changed settled value.
	Toggles []int64

	// OutputBits[v][o] is primary output o's settled value under vector v.
	OutputBits [][]bool

	// Final holds the settled value of every net after the last vector.
	Final []Value

	// Events is the number of committed net-change events processed (event
	// engine; the levelized engine counts gate evaluations).
	Events int64
	// MaxQueue is the event-queue high-water mark (event engine only).
	MaxQueue int
	// SimTimeFs is the total simulated time in femtoseconds (event engine
	// only).
	SimTimeFs int64

	model *Model
}

// ToggleRates returns per-net-name toggle densities (transitions per
// vector), the unit internal/power consumes.
func (r *Result) ToggleRates() map[string]float64 {
	rates := make(map[string]float64, len(r.Toggles))
	if r.Vectors == 0 {
		return rates
	}
	for i, t := range r.Toggles {
		rates[r.model.Nets[i]] = float64(t) / float64(r.Vectors)
	}
	return rates
}

// TotalToggles sums toggle counts over all nets.
func (r *Result) TotalToggles() int64 {
	var n int64
	for _, t := range r.Toggles {
		n += t
	}
	return n
}

// Activity is a run's measured per-net toggle densities (transitions per
// vector, keyed by net name): the form power.Options.Activity consumes.
type Activity struct {
	Rates map[string]float64
}

// Activity returns the run's measured activity.
func (r *Result) Activity() Activity { return Activity{Rates: r.ToggleRates()} }
