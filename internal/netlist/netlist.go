// Package netlist represents technology-mapped gate-level netlists: the
// output of the technology mapper and the input to the STA and power
// analysis engines. It supports structural Verilog import and export;
// internal/gsim simulates it.
package netlist

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/pdk"
)

// Constant net names: Verilog scalar literals are accepted anywhere a net
// can appear (gate input pins, assign right-hand sides). Simulation and the
// structural checks treat them as always-driven constant drivers.
const (
	Const0 = "1'b0"
	Const1 = "1'b1"
)

// Gate is one cell instance. Pins are ordered exactly as the PDK cell's
// Inputs list; Output receives the single output pin.
type Gate struct {
	Name   string // instance name
	Cell   string // library cell name
	Inputs []string
	Output string
}

// Netlist is a combinational mapped circuit.
type Netlist struct {
	Name    string
	Inputs  []string
	Outputs []string
	Gates   []Gate // topologically ordered (drivers before loads)
	// Aliases maps primary-output names onto the internal nets driving
	// them (emitted as Verilog assigns).
	Aliases map[string]string

	cellIndex map[string]*pdk.Cell
}

// New creates an empty netlist bound to a PDK cell catalog for function
// lookup.
func New(name string, cells []*pdk.Cell) *Netlist {
	idx := make(map[string]*pdk.Cell, len(cells))
	for _, c := range cells {
		idx[c.Name] = c
	}
	return &Netlist{Name: name, Aliases: make(map[string]string), cellIndex: idx}
}

// Cell returns the PDK definition of a cell name, or nil.
func (n *Netlist) Cell(name string) *pdk.Cell { return n.cellIndex[name] }

// AddGate appends a gate instance (drivers must be appended before loads).
func (n *Netlist) AddGate(cell string, inputs []string, output string) error {
	def := n.cellIndex[cell]
	if def == nil {
		return fmt.Errorf("netlist: unknown cell %s", cell)
	}
	if len(inputs) != len(def.Inputs) {
		return fmt.Errorf("netlist: cell %s expects %d inputs, got %d", cell, len(def.Inputs), len(inputs))
	}
	n.Gates = append(n.Gates, Gate{
		Name:   fmt.Sprintf("g%d", len(n.Gates)),
		Cell:   cell,
		Inputs: append([]string(nil), inputs...),
		Output: output,
	})
	return nil
}

// NumGates returns the instance count.
func (n *Netlist) NumGates() int { return len(n.Gates) }

// Area sums the cell areas.
func (n *Netlist) Area() float64 {
	var a float64
	for _, g := range n.Gates {
		a += n.cellIndex[g.Cell].Area()
	}
	return a
}

// CellCounts returns instance counts per cell name.
func (n *Netlist) CellCounts() map[string]int {
	out := make(map[string]int)
	for _, g := range n.Gates {
		out[g.Cell]++
	}
	return out
}

// Fanouts returns, per net, the list of (gate index, pin index) loads, plus
// which nets are primary outputs.
func (n *Netlist) Fanouts() map[string][][2]int {
	out := make(map[string][][2]int)
	for gi, g := range n.Gates {
		for pi, in := range g.Inputs {
			out[in] = append(out[in], [2]int{gi, pi})
		}
	}
	return out
}

// Resolve returns the driving net for a name, following output aliases.
func (n *Netlist) Resolve(name string) string {
	if d, ok := n.Aliases[name]; ok {
		return d
	}
	return name
}

// WriteVerilog emits the netlist as structural Verilog.
func (n *Netlist) WriteVerilog(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "// mapped netlist %s: %d gates\n", n.Name, len(n.Gates))
	fmt.Fprintf(&b, "module %s (%s, %s);\n", sanitize(n.Name),
		strings.Join(sanitizeAll(n.Inputs), ", "), strings.Join(sanitizeAll(n.Outputs), ", "))
	for _, in := range n.Inputs {
		fmt.Fprintf(&b, "  input %s;\n", sanitize(in))
	}
	for _, out := range n.Outputs {
		fmt.Fprintf(&b, "  output %s;\n", sanitize(out))
	}
	// Internal wires.
	declared := make(map[string]bool)
	for _, in := range n.Inputs {
		declared[sanitize(in)] = true
	}
	for _, out := range n.Outputs {
		declared[sanitize(out)] = true
	}
	var wires []string
	for _, g := range n.Gates {
		if s := sanitize(g.Output); !declared[s] {
			declared[s] = true
			wires = append(wires, s)
		}
	}
	sort.Strings(wires)
	for _, wn := range wires {
		fmt.Fprintf(&b, "  wire %s;\n", wn)
	}
	for _, g := range n.Gates {
		def := n.cellIndex[g.Cell]
		var pins []string
		for i, in := range g.Inputs {
			pins = append(pins, fmt.Sprintf(".%s(%s)", def.Inputs[i], sanitize(in)))
		}
		pins = append(pins, fmt.Sprintf(".%s(%s)", def.Outputs[0], sanitize(g.Output)))
		fmt.Fprintf(&b, "  %s %s (%s);\n", g.Cell, g.Name, strings.Join(pins, ", "))
	}
	var aliased []string
	for out := range n.Aliases {
		aliased = append(aliased, out)
	}
	sort.Strings(aliased)
	for _, out := range aliased {
		fmt.Fprintf(&b, "  assign %s = %s;\n", sanitize(out), sanitize(n.Aliases[out]))
	}
	fmt.Fprintf(&b, "endmodule\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func sanitize(s string) string {
	return strings.NewReplacer(".", "_", "[", "_", "]", "_").Replace(s)
}

func sanitizeAll(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = sanitize(s)
	}
	return out
}
