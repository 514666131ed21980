package gsim_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gsim"
	"repro/internal/netlist"
	"repro/internal/pdk"
)

// scalarRun is the oracle for the levelized engine: it evaluates one vector
// at a time by truth-table row lookup, in gate order, and counts a toggle
// whenever a net's value differs from its value under the previous vector.
// It returns per-net toggle counts and per-vector primary-output values.
func scalarRun(t *testing.T, m *gsim.Model, vectors []gsim.Vector) ([]int64, [][]bool) {
	t.Helper()
	one, ok := m.NetIndex(netlist.Const1)
	if !ok {
		t.Fatal("model has no 1'b1 net")
	}
	vals := make([]bool, m.NumNets())
	prev := make([]bool, m.NumNets())
	toggles := make([]int64, m.NumNets())
	outs := make([][]bool, len(vectors))
	vals[one] = true
	for v, vec := range vectors {
		for i, idx := range m.Inputs {
			vals[idx] = vec[i]
		}
		for _, g := range m.Gates {
			row := 0
			for i, in := range g.In {
				if vals[in] {
					row |= 1 << i
				}
			}
			vals[g.Out] = g.Truth>>row&1 != 0
		}
		if v > 0 {
			for n := range vals {
				if vals[n] != prev[n] {
					toggles[n]++
				}
			}
		}
		outs[v] = make([]bool, len(m.Outputs))
		for o, idx := range m.Outputs {
			outs[v][o] = vals[idx]
		}
		copy(prev, vals)
	}
	return toggles, outs
}

// tieFixture exercises what a mapped netlist can carry besides plain gate
// outputs: a pin tied to 1'b1, an output aliased onto an internal net, an
// output aliased straight to a constant, and an output driven directly.
func tieFixture(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("ties", pdk.Catalog())
	nl.Inputs = []string{"a", "b", "c"}
	nl.Outputs = []string{"y", "z", "one", "w"}
	for _, g := range []struct {
		cell string
		in   []string
		out  string
	}{
		{"NAND2x1", []string{"a", netlist.Const1}, "n1"},
		{"AOI21x1", []string{"n1", "b", "c"}, "w"},
		{"XOR2x1", []string{"w", "a"}, "n3"},
	} {
		if err := nl.AddGate(g.cell, g.in, g.out); err != nil {
			t.Fatalf("AddGate(%s): %v", g.cell, err)
		}
	}
	nl.Aliases["y"] = "n3"
	nl.Aliases["z"] = "n1"
	nl.Aliases["one"] = netlist.Const1
	return nl
}

// TestLevelizedMatchesScalarReference cross-checks the word-parallel
// levelized engine against scalarRun: toggle counts, toggle rates and
// per-vector outputs must agree exactly, for vector counts on both sides of
// a 64-vector word (partial-word masking and the carry of the last value
// across a word boundary).
func TestLevelizedMatchesScalarReference(t *testing.T) {
	designs := map[string]*netlist.Netlist{
		"ctrl": buildMapped(t, "ctrl").nl,
		"ties": tieFixture(t),
	}
	for _, name := range []string{"ctrl", "ties"} {
		m, err := gsim.Compile(designs[name])
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		for _, n := range []int{1, 63, 64, 65, 200} {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				vectors := m.RandomVectors(n, 7)
				res, err := gsim.NewLevelized(m).Run(context.Background(), vectors)
				if err != nil {
					t.Fatalf("levelized: %v", err)
				}
				toggles, outs := scalarRun(t, m, vectors)
				rates := res.ToggleRates()
				for i, net := range m.Nets {
					if res.Toggles[i] != toggles[i] {
						t.Errorf("net %s: levelized %d toggles, reference %d", net, res.Toggles[i], toggles[i])
					}
					if want := float64(toggles[i]) / float64(n); rates[net] != want {
						t.Errorf("net %s: toggle rate %v, reference %v", net, rates[net], want)
					}
				}
				if v, o, ok := diffBits(res.OutputBits, outs); !ok {
					t.Errorf("vector %d output %s: levelized %v, reference %v",
						v, m.OutputNames[o], res.OutputBits[v][o], outs[v][o])
				}
			})
		}
	}
}
