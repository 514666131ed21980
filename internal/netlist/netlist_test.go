package netlist_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/gsim"
	"repro/internal/netlist"
	"repro/internal/pdk"
)

var catalog = pdk.Catalog()

func simpleNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("simple", catalog)
	nl.Inputs = []string{"a", "b"}
	if err := nl.AddGate("NAND2x1", []string{"a", "b"}, "n1"); err != nil {
		t.Fatal(err)
	}
	if err := nl.AddGate("INVx1", []string{"n1"}, "n2"); err != nil {
		t.Fatal(err)
	}
	nl.Outputs = []string{"y"}
	nl.Aliases["y"] = "n2"
	return nl
}

// compile builds the gsim model of a netlist, failing the test on error.
func compile(t *testing.T, nl *netlist.Netlist) *gsim.Model {
	t.Helper()
	m, err := gsim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// eval computes the primary outputs for one input assignment with gsim's
// levelized engine.
func eval(t *testing.T, nl *netlist.Netlist, in map[string]bool) map[string]bool {
	t.Helper()
	m := compile(t, nl)
	vec := make(gsim.Vector, len(m.InputNames))
	for i, name := range m.InputNames {
		vec[i] = in[name]
	}
	res, err := gsim.NewLevelized(m).Run(context.Background(), []gsim.Vector{vec})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, len(m.OutputNames))
	for o, name := range m.OutputNames {
		out[name] = res.OutputBits[0][o]
	}
	return out
}

func TestEvalAndGate(t *testing.T) {
	nl := simpleNetlist(t)
	for idx := 0; idx < 4; idx++ {
		in := map[string]bool{"a": idx&1 != 0, "b": idx&2 != 0}
		if out := eval(t, nl, in); out["y"] != (in["a"] && in["b"]) {
			t.Errorf("y(%v) = %v", in, out["y"])
		}
	}
}

func TestSimWordsMatchesBitwise(t *testing.T) {
	m := compile(t, simpleNetlist(t))
	vals, err := m.SimWords([]uint64{0b1100, 0b1010}) // a, b
	if err != nil {
		t.Fatal(err)
	}
	word := func(net string) uint64 {
		i, ok := m.NetIndex(net)
		if !ok {
			t.Fatalf("net %s missing", net)
		}
		return vals[i] & 0xF
	}
	if w := word("n2"); w != 0b1000 {
		t.Errorf("AND word = %b", w)
	}
	if w := word("n1"); w != 0b0111 {
		t.Errorf("NAND word = %b", w)
	}
}

func TestAddGateValidation(t *testing.T) {
	nl := netlist.New("bad", catalog)
	if err := nl.AddGate("NOPE", []string{"a"}, "y"); err == nil {
		t.Error("unknown cell accepted")
	}
	if err := nl.AddGate("NAND2x1", []string{"a"}, "y"); err == nil {
		t.Error("wrong pin count accepted")
	}
}

func TestUseBeforeDriveDetected(t *testing.T) {
	nl := netlist.New("order", catalog)
	nl.Inputs = []string{"a"}
	nl.AddGate("INVx1", []string{"ghost"}, "n1")
	if _, err := gsim.Compile(nl); err == nil {
		t.Error("undriven net not detected")
	}
}

func TestToggleRatesUnderRandomStimulus(t *testing.T) {
	m := compile(t, simpleNetlist(t))
	res, err := gsim.NewLevelized(m).Run(context.Background(), m.RandomVectors(8*64, 3))
	if err != nil {
		t.Fatal(err)
	}
	rates := res.ToggleRates()
	// Random inputs toggle with rate ~0.5; the AND output toggles at
	// ~2*(1/4)*(3/4) = 0.375.
	if math.Abs(rates["a"]-0.5) > 0.06 {
		t.Errorf("input toggle rate %v, want ~0.5", rates["a"])
	}
	if math.Abs(rates["n2"]-0.375) > 0.06 {
		t.Errorf("AND toggle rate %v, want ~0.375", rates["n2"])
	}
	// NAND and its inverse toggle identically.
	if math.Abs(rates["n1"]-rates["n2"]) > 1e-9 {
		t.Errorf("complementary nets with different rates: %v vs %v", rates["n1"], rates["n2"])
	}
}

func TestAreaAndCounts(t *testing.T) {
	nl := simpleNetlist(t)
	if nl.Area() <= 0 {
		t.Error("area must be positive")
	}
	counts := nl.CellCounts()
	if counts["NAND2x1"] != 1 || counts["INVx1"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if nl.NumGates() != 2 {
		t.Errorf("gates = %d", nl.NumGates())
	}
}

func TestWriteVerilog(t *testing.T) {
	nl := simpleNetlist(t)
	var sb strings.Builder
	if err := nl.WriteVerilog(&sb); err != nil {
		t.Fatal(err)
	}
	v := sb.String()
	for _, want := range []string{
		"module simple (a, b, y);",
		"input a;",
		"output y;",
		"NAND2x1 g0 (.A(a), .B(b), .Y(n1));",
		"assign y = n2;",
		"endmodule",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("verilog missing %q:\n%s", want, v)
		}
	}
}

func TestFanouts(t *testing.T) {
	nl := netlist.New("fan", catalog)
	nl.Inputs = []string{"a"}
	nl.AddGate("INVx1", []string{"a"}, "n1")
	nl.AddGate("INVx1", []string{"n1"}, "n2")
	nl.AddGate("NAND2x1", []string{"n1", "n2"}, "n3")
	f := nl.Fanouts()
	if len(f["n1"]) != 2 {
		t.Errorf("n1 fanouts = %v", f["n1"])
	}
}

func TestVerilogRoundTrip(t *testing.T) {
	nl := simpleNetlist(t)
	nl.AddGate("AOI21x1", []string{"a", "b", "n2"}, "n3")
	nl.Outputs = append(nl.Outputs, "z")
	nl.Aliases["z"] = "n3"
	var sb strings.Builder
	if err := nl.WriteVerilog(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := netlist.ReadVerilog(strings.NewReader(sb.String()), catalog)
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if back.Name != nl.Name || back.NumGates() != nl.NumGates() {
		t.Fatalf("structure lost: %d gates vs %d", back.NumGates(), nl.NumGates())
	}
	// Functional equivalence over all input vectors.
	for idx := 0; idx < 4; idx++ {
		in := map[string]bool{"a": idx&1 != 0, "b": idx&2 != 0}
		w1, w2 := eval(t, nl, in), eval(t, back, in)
		for _, o := range nl.Outputs {
			if w1[o] != w2[o] {
				t.Fatalf("output %s differs after round trip at %v", o, in)
			}
		}
	}
}

func TestReadVerilogRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"module m (a); input a; NOPE g0 (.A(a), .Y(y)); endmodule",
		"module m (a); input a; INVx1 g0 (a, y); endmodule",  // positional ports
		"module m (a); input a; INVx1 g0 (.Y(y)); endmodule", // missing pin
		"wire w; module m (a); endmodule",                    // decl before module
	}
	for _, src := range cases {
		if _, err := netlist.ReadVerilog(strings.NewReader(src), catalog); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestReadVerilogConstantTies(t *testing.T) {
	src := `// constant ties on pins and assigns
module ties (a, y, z);
input a;
output y;
output z;
wire n1;
NAND2x1 g0 (.A(a), .B(1'b1), .Y(n1));
assign y = n1;
assign z = 1'b0;
endmodule`
	nl, err := netlist.ReadVerilog(strings.NewReader(src), catalog)
	if err != nil {
		t.Fatal(err)
	}
	if issues := nl.Check(); len(issues) != 0 {
		t.Errorf("constant-tied netlist has issues: %v", issues)
	}
	// y = NAND(a, 1) = !a; z = 0 always.
	for _, a := range []bool{false, true} {
		if out := eval(t, nl, map[string]bool{"a": a}); out["y"] != !a || out["z"] != false {
			t.Errorf("a=%v: got y=%v z=%v", a, out["y"], out["z"])
		}
	}
}

func TestReadVerilogRejectsBadConstants(t *testing.T) {
	cases := []string{
		// only 1'b0 / 1'b1 are recognized literals
		"module m (a, y); input a; output y; INVx1 g0 (.A(2'b01), .Y(y)); endmodule",
		"module m (a, y); input a; output y; INVx1 g0 (.A(1'bx), .Y(y)); endmodule",
		// an instance must not drive a constant literal
		"module m (a); input a; INVx1 g0 (.A(a), .Y(1'b0)); endmodule",
	}
	for _, src := range cases {
		if _, err := netlist.ReadVerilog(strings.NewReader(src), catalog); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestReadVerilogErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		src      string
		wantLine string
	}{
		{"module m (a, y);\ninput a;\noutput y;\nNOPE g0 (.A(a), .Y(y));\nendmodule", "line 4"},
		{"module m (a, y);\ninput a;\n\noutput y;\nINVx1 g0 (a, y);\nendmodule", "line 5"},
		{"wire w;\nmodule m (a);\nendmodule", "line 1"},
		{"module m (a, y);\ninput a;\noutput y;\nINVx1 g0 (.Y(y));\nendmodule", "line 4"},
	}
	for _, tc := range cases {
		_, err := netlist.ReadVerilog(strings.NewReader(tc.src), catalog)
		if err == nil {
			t.Errorf("accepted %q", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantLine) {
			t.Errorf("error %q does not name %s (source %q)", err, tc.wantLine, tc.src)
		}
	}
}

func TestCheckCleanNetlist(t *testing.T) {
	nl := simpleNetlist(t)
	if issues := nl.Check(); len(issues) != 0 {
		t.Errorf("clean netlist reported issues: %v", issues)
	}
}

func TestCheckFindsProblems(t *testing.T) {
	nl := netlist.New("broken", catalog)
	nl.Inputs = []string{"a"}
	nl.AddGate("INVx1", []string{"ghost"}, "n1") // bad order: ghost undriven
	nl.AddGate("INVx1", []string{"a"}, "n1")     // multi-driver on n1
	nl.AddGate("INVx1", []string{"a"}, "dead")   // unused gate
	nl.Outputs = []string{"y"}
	nl.Aliases["y"] = "nowhere" // undriven output
	kinds := map[string]bool{}
	for _, is := range nl.Check() {
		kinds[is.Kind] = true
	}
	for _, want := range []string{"bad-order", "multi-driver", "unused-gate", "undriven-output"} {
		if !kinds[want] {
			t.Errorf("missing issue kind %q (got %v)", want, kinds)
		}
	}
}

func TestCheckMappedCircuitsClean(t *testing.T) {
	// The mapper's output must always pass DRC (checked here on a hand
	// netlist standing in for mapper output via the round-trip path).
	nl := simpleNetlist(t)
	var sb strings.Builder
	if err := nl.WriteVerilog(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := netlist.ReadVerilog(strings.NewReader(sb.String()), catalog)
	if err != nil {
		t.Fatal(err)
	}
	if issues := back.Check(); len(issues) != 0 {
		t.Errorf("round-tripped netlist has issues: %v", issues)
	}
}
