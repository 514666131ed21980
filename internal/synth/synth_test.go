package synth

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/epfl"
	"repro/internal/mapper"
	"repro/internal/pdk"
	"repro/internal/testlib"
)

var catalog = pdk.Catalog()

func buildML(t *testing.T, temp float64) (*mapper.MatchLibrary, *testLibHandle) {
	t.Helper()
	lib, used := testlib.Build(catalog, testlib.Names(), temp)
	ml, err := mapper.BuildMatchLibrary(lib, used, 6)
	if err != nil {
		t.Fatal(err)
	}
	return ml, &testLibHandle{lib: lib}
}

type testLibHandle struct{ lib interface{} }

func TestScenarioStrings(t *testing.T) {
	if BaselinePowerAware.String() != "baseline" ||
		CryoPAD.String() != "p->a->d" || CryoPDA.String() != "p->d->a" {
		t.Error("scenario names drifted from the paper's labels")
	}
	if CryoPAD.MapMode() != mapper.PowerAreaDelay || CryoPDA.MapMode() != mapper.PowerDelayArea {
		t.Error("scenario->mapper mode binding broken")
	}
}

func TestSynthesizeSmallCircuitsVerified(t *testing.T) {
	ml, _ := buildML(t, 300)
	for _, name := range []string{"ctrl", "int2float", "router", "cavlc", "dec"} {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []Scenario{BaselinePowerAware, CryoPAD, CryoPDA} {
			res, err := Synthesize(context.Background(), g, ml, Options{Scenario: sc, Verify: true, Seed: 5})
			if err != nil {
				t.Fatalf("%s %v: %v", name, sc, err)
			}
			if res.Netlist.NumGates() == 0 {
				t.Fatalf("%s %v: empty netlist", name, sc)
			}
			if err := VerifyMapped(g, res, 6, 11); err != nil {
				t.Fatalf("%s %v: mapped netlist wrong: %v", name, sc, err)
			}
		}
	}
}

func TestC2RSCompresses(t *testing.T) {
	// The paper's stage 1 exists to shrink the input AIG; on the
	// mux-heavy benchmarks it must not grow it.
	for _, name := range []string{"int2float", "priority", "i2c"} {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := c2rs(g, 3)
		if opt.NumNodes() > g.NumNodes() {
			t.Errorf("%s: c2rs grew the network %d -> %d", name, g.NumNodes(), opt.NumNodes())
		}
		eq, proven := aig.Equivalent(g, opt, 100000)
		if !proven || !eq {
			t.Fatalf("%s: c2rs equivalence eq=%v proven=%v", name, eq, proven)
		}
	}
}

func TestPowerStagePreservesFunction(t *testing.T) {
	g, err := epfl.Build("router")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scenario{BaselinePowerAware, CryoPAD, CryoPDA} {
		out, err := powerStage(g, Options{Scenario: sc, LutK: 6, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		eq, proven := aig.Equivalent(g, out, 100000)
		if !proven || !eq {
			t.Fatalf("scenario %v: power stage eq=%v proven=%v", sc, eq, proven)
		}
	}
}

func TestCompareProducesMetrics(t *testing.T) {
	ml, _ := buildML(t, 300)
	lib, _ := testlib.Build(catalog, testlib.Names(), 300)
	g, err := epfl.Build("int2float")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(context.Background(), g, ml, lib, FlowOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.ClockPeriod <= 0 {
		t.Fatal("clock period not set")
	}
	for _, sc := range []Scenario{BaselinePowerAware, CryoPAD, CryoPDA} {
		m := cmp.Metrics[sc]
		if m.Gates == 0 || m.Delay <= 0 || m.Power == nil || m.Power.Total() <= 0 {
			t.Errorf("scenario %v metrics incomplete: %+v", sc, m)
		}
		if m.Delay > cmp.ClockPeriod {
			t.Errorf("scenario %v delay %v exceeds the shared clock %v", sc, m.Delay, cmp.ClockPeriod)
		}
	}
	// The savings/overhead accessors are exact transforms of the metrics.
	for _, sc := range []Scenario{CryoPAD, CryoPDA} {
		s := cmp.PowerSaving(sc)
		if s <= -1 || s >= 1 {
			t.Errorf("scenario %v power saving out of range: %v", sc, s)
		}
	}
	if cmp.PowerSaving(BaselinePowerAware) != 0 {
		t.Error("baseline saving vs itself must be zero")
	}
	if cmp.DelayOverhead(BaselinePowerAware) != 0 {
		t.Error("baseline overhead vs itself must be zero")
	}
}

func TestStageBetterHierarchy(t *testing.T) {
	// power 10 vs 20, size 5 vs 1, depth 1 vs 5.
	if !stageBetter(10, 5, 1, 20, 1, 5, CryoPAD) {
		t.Error("p->a->d must pick the lower-power variant")
	}
	if stageBetter(10, 5, 1, 20, 1, 5, BaselinePowerAware) {
		t.Error("baseline must pick the smaller variant")
	}
	// Power tie: area decides for PAD, depth for PDA.
	if !stageBetter(10, 1, 9, 10.05, 5, 1, CryoPAD) {
		t.Error("p->a->d tie on power must fall to area")
	}
	if stageBetter(10, 1, 9, 10.05, 5, 1, CryoPDA) {
		t.Error("p->d->a tie on power must fall to delay")
	}
}

func TestAblationFlags(t *testing.T) {
	ml, _ := buildML(t, 300)
	g, err := epfl.Build("router")
	if err != nil {
		t.Fatal(err)
	}
	full, err := Synthesize(context.Background(), g, ml, Options{Scenario: CryoPAD, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	noMfs, err := Synthesize(context.Background(), g, ml, Options{Scenario: CryoPAD, Seed: 1, SkipMfs: true})
	if err != nil {
		t.Fatal(err)
	}
	noChoices, err := Synthesize(context.Background(), g, ml, Options{Scenario: CryoPAD, Seed: 1, SkipChoices: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{full, noMfs, noChoices} {
		if err := VerifyMapped(g, r, 4, 9); err != nil {
			t.Fatalf("ablation variant broke function: %v", err)
		}
	}
}

func TestSynthesizedNetlistsPassDRC(t *testing.T) {
	ml, _ := buildML(t, 300)
	for _, name := range []string{"ctrl", "router", "dec"} {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []Scenario{BaselinePowerAware, CryoPAD, CryoPDA} {
			res, err := Synthesize(context.Background(), g, ml, Options{Scenario: sc, Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			if issues := res.Netlist.Check(); len(issues) != 0 {
				t.Errorf("%s %v: mapped netlist DRC: %v", name, sc, issues)
			}
		}
	}
}

// verifyFixture synthesizes int2float and returns the source AIG plus a
// result whose netlist the caller may tamper with (Gates is a private copy).
func verifyFixture(t *testing.T) (*aig.AIG, *Result) {
	t.Helper()
	ml, _ := buildML(t, 300)
	g, err := epfl.Build("int2float")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(context.Background(), g, ml, Options{Scenario: CryoPAD, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMapped(g, res, 4, 5); err != nil {
		t.Fatalf("untampered netlist rejected: %v", err)
	}
	nl := *res.Netlist
	nl.Gates = slices.Clone(nl.Gates)
	nl.Outputs = slices.Clone(nl.Outputs)
	tampered := *res
	tampered.Netlist = &nl
	return g, &tampered
}

// TestVerifyMappedRejectsSwappedCell swaps the cell of a gate that drives a
// primary output for a same-arity cell computing the complement, which
// flips that output on every vector.
func TestVerifyMappedRejectsSwappedCell(t *testing.T) {
	g, res := verifyFixture(t)
	nl := res.Netlist
	complement := func(cell string) string {
		def := nl.Cell(cell)
		tt, _ := def.Truth(def.Outputs[0])
		mask := uint64(1)<<(1<<len(def.Inputs)) - 1
		for _, c := range catalog {
			if nl.Cell(c.Name) == nil || len(c.Inputs) != len(def.Inputs) || len(c.Outputs) != 1 {
				continue
			}
			if ct, ok := c.Truth(c.Outputs[0]); ok && ct == ^tt&mask {
				return c.Name
			}
		}
		return ""
	}
	for _, o := range nl.Outputs {
		drv := nl.Resolve(o)
		for i, gate := range nl.Gates {
			if gate.Output != drv {
				continue
			}
			if swap := complement(gate.Cell); swap != "" {
				nl.Gates[i].Cell = swap
				err := VerifyMapped(g, res, 4, 5)
				if err == nil || !strings.Contains(err.Error(), "mismatches") {
					t.Fatalf("gate %s swapped %s -> %s: VerifyMapped = %v, want a mismatch",
						gate.Name, gate.Cell, swap, err)
				}
				return
			}
		}
	}
	t.Fatal("no output-driving gate has a complement cell in the library")
}

// TestVerifyMappedRejectsMissingOutput drops one AIG output from the
// netlist's port list.
func TestVerifyMappedRejectsMissingOutput(t *testing.T) {
	g, res := verifyFixture(t)
	nl := res.Netlist
	dropped := nl.Outputs[0]
	nl.Outputs = nl.Outputs[1:]
	err := VerifyMapped(g, res, 4, 5)
	if err == nil || !strings.Contains(err.Error(), dropped) {
		t.Fatalf("netlist without output %s: VerifyMapped = %v, want an error naming it", dropped, err)
	}
}
