package spice_test

import (
	"testing"

	"repro/internal/pdk"
	"repro/internal/spice"
)

// benchCircuit builds a mid-size PDK cell (a scan flop: the biggest common
// characterization DUT) at 10 K with DC inputs, using the requested solver
// backend.
func benchCircuit(b *testing.B, name string, kind spice.SolverKind) *spice.Circuit {
	b.Helper()
	cell := pdk.FindCell(pdk.Catalog(), name)
	if cell == nil {
		b.Fatalf("cell %s not in catalog", name)
	}
	const vdd = 0.55
	c := spice.New(10)
	c.Solver = kind
	vddN := c.Node("vdd")
	c.AddVSource(vddN, spice.Ground, spice.DC(vdd))
	pins := map[string]spice.NodeID{}
	for _, in := range cell.Inputs {
		node := c.Node("in_" + in)
		pins[in] = node
		c.AddVSource(node, spice.Ground, spice.DC(0))
	}
	for _, out := range cell.Outputs {
		pins[out] = c.Node("out_" + out)
	}
	if err := cell.Build(c, "dut", pins, vddN); err != nil {
		b.Fatalf("%s: build: %v", cell.Name, err)
	}
	if cell.Seq {
		for _, state := range []string{"mi", "si", "li"} {
			if id, ok := c.LookupNode("dut." + state); ok {
				c.AddClamp(id, 0, spice.DC(0.05))
			}
		}
	}
	return c
}

var backends = []struct {
	name string
	kind spice.SolverKind
}{
	{"dense", spice.SolverDense},
	{"sparse", spice.SolverSparse},
}

// BenchmarkOpPoint measures a full Newton DC solve on a representative PDK
// cell with each backend. The sparse backend amortizes its symbolic
// factorization across every iteration after the first, so the gap widens
// with repeated solves of the same topology (the characterization pattern).
func BenchmarkOpPoint(b *testing.B) {
	for _, bc := range backends {
		b.Run("SDFFx1/"+bc.name, func(b *testing.B) {
			c := benchCircuit(b, "SDFFx1", bc.kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.OpPoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("AOI222x1/"+bc.name, func(b *testing.B) {
			c := benchCircuit(b, "AOI222x1", bc.kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.OpPoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransientStep measures one steady-state fixed-step transient
// step — stamp, factor, solve until Newton converges — on a combinational
// cell and a flop at 10 K with each backend. This is the characterization
// inner loop, and a converged step must allocate nothing: CI fails on any
// nonzero allocs/op.
func BenchmarkTransientStep(b *testing.B) {
	const dt = 1e-12
	for _, name := range []string{"AOI21x1", "DFFx1"} {
		for _, bc := range backends {
			b.Run(name+"/"+bc.name, func(b *testing.B) {
				c := benchCircuit(b, name, bc.kind)
				x, err := c.OpPoint()
				if err != nil {
					b.Fatal(err)
				}
				next := make([]float64, len(x))
				// The first steps record the transient stamp sequence.
				for i := 1; i <= 4; i++ {
					if err := c.TranStep(next, x, float64(i)*dt, dt); err != nil {
						b.Fatal(err)
					}
					x, next = next, x
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.TranStep(next, x, float64(i+5)*dt, dt); err != nil {
						b.Fatal(err)
					}
					x, next = next, x
				}
			})
		}
	}
}
