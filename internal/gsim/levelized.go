package gsim

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/obs"
)

// Engine is a gate-level simulation engine over a compiled model. Both
// engines are deterministic: the same model, options, and vectors produce
// bit-identical results.
type Engine interface {
	// Name identifies the engine ("levelized" or "event").
	Name() string
	// Run executes the vectors in order and returns the measured result.
	Run(ctx context.Context, vectors []Vector) (*Result, error)
}

// levelized is the zero-delay compiled engine: gates evaluate once per
// vector in topological order, 64 vectors at a time in word-parallel
// planes. It is the functional/regression mode — fast and two-valued.
type levelized struct {
	m *Model
}

// NewLevelized returns the zero-delay levelized engine.
func NewLevelized(m *Model) Engine { return &levelized{m: m} }

func (e *levelized) Name() string { return "levelized" }

// SimWords evaluates one 64-vector word plane: in[i] carries the stimulus
// bits of primary input i. The returned slice holds one word per net.
func (m *Model) SimWords(in []uint64) ([]uint64, error) {
	if len(in) != len(m.Inputs) {
		return nil, fmt.Errorf("gsim: SimWords wants %d input words, got %d", len(m.Inputs), len(in))
	}
	vals := make([]uint64, len(m.Nets))
	vals[netConst1] = ^uint64(0)
	for i, idx := range m.Inputs {
		vals[idx] = in[i]
	}
	for gi := range m.Gates {
		g := &m.Gates[gi]
		var out uint64
		// Shannon row selection, bit-parallel: for each ON-set row of the
		// truth table, AND together the matching input planes.
		for row := 0; row < 1<<uint(len(g.In)); row++ {
			if g.Truth&(1<<uint(row)) == 0 {
				continue
			}
			sel := ^uint64(0)
			for i, idx := range g.In {
				if row&(1<<uint(i)) != 0 {
					sel &= vals[idx]
				} else {
					sel &= ^vals[idx]
				}
			}
			out |= sel
		}
		vals[g.Out] = out
	}
	return vals, nil
}

func (e *levelized) Run(ctx context.Context, vectors []Vector) (*Result, error) {
	m := e.m
	_, span := obs.Start(ctx, "gsim.levelized")
	span.SetAttr("design", m.Name)
	span.SetAttr("vectors", len(vectors))
	defer span.End()
	obs.C("gsim.runs").Inc()

	res := &Result{
		Engine:     "levelized",
		Vectors:    len(vectors),
		Toggles:    make([]int64, len(m.Nets)),
		OutputBits: make([][]bool, len(vectors)),
		Final:      make([]Value, len(m.Nets)),
		model:      m,
	}
	for i := range res.Final {
		res.Final[i] = VX
	}
	res.Final[netConst0] = V0
	res.Final[netConst1] = V1

	in := make([]uint64, len(m.Inputs))
	var prev []uint64
	var evals int64
	task := obs.Progress("gsim.vectors", int64(len(vectors)))
	defer task.Finish()
	for base := 0; base < len(vectors); base += 64 {
		chunk := len(vectors) - base
		if chunk > 64 {
			chunk = 64
		}
		for i := range in {
			var w uint64
			for b := 0; b < chunk; b++ {
				if len(vectors[base+b]) != len(m.Inputs) {
					return nil, fmt.Errorf("gsim: vector %d has %d bits, want %d",
						base+b, len(vectors[base+b]), len(m.Inputs))
				}
				if vectors[base+b][i] {
					w |= 1 << uint(b)
				}
			}
			in[i] = w
		}
		vals, err := m.SimWords(in)
		if err != nil {
			return nil, err
		}
		evals += int64(len(m.Gates))
		// Toggle counting: transitions between consecutive vectors inside
		// the word, plus the boundary to the previous word's last vector.
		mask := ^uint64(0)
		if chunk < 64 {
			mask = 1<<uint(chunk) - 1
		}
		for net, w := range vals {
			flips := bits.OnesCount64((w ^ (w << 1)) &^ 1 & mask)
			if prev != nil && (prev[net]>>63)&1 != w&1 {
				flips++
			}
			res.Toggles[net] += int64(flips)
		}
		for b := 0; b < chunk; b++ {
			ob := make([]bool, len(m.Outputs))
			for o, idx := range m.Outputs {
				ob[o] = vals[idx]&(1<<uint(b)) != 0
			}
			res.OutputBits[base+b] = ob
		}
		if base+chunk == len(vectors) {
			last := uint(chunk - 1)
			for net, w := range vals {
				if w&(1<<last) != 0 {
					res.Final[net] = V1
				} else {
					res.Final[net] = V0
				}
			}
		}
		prev = vals
		task.Add(int64(chunk))
	}
	res.Events = evals
	obs.C("gsim.vectors").Add(int64(len(vectors)))
	obs.C("gsim.gate_evals").Add(evals)
	obs.C("gsim.toggles").Add(res.TotalToggles())
	span.SetAttr("toggles", res.TotalToggles())
	return res, nil
}
