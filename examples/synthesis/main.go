// Synthesis example: take one EPFL benchmark through the complete
// cryogenic-aware flow — c2rs compression, the power-aware dch/if/mfs
// stage, and technology mapping under all three cost hierarchies — then
// compare power and delay under the paper's shared-clock normalization,
// and verify the mapped netlists against the source AIG.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/epfl"
	"repro/internal/flow"
	"repro/internal/synth"
)

func main() {
	name := flag.String("circuit", "int2float", "EPFL benchmark to synthesize")
	verilog := flag.Bool("verilog", false, "print the mapped Verilog of the p->a->d variant")
	flag.Parse()
	ctx := context.Background()

	g, err := epfl.Build(*name)
	exitOn(err)
	fmt.Printf("circuit %s: %d inputs, %d outputs, %d AIG nodes, depth %d\n",
		g.Name, g.NumPIs(), g.NumPOs(), g.NumNodes(), g.Depth())

	corner, err := flow.LoadCorner(ctx, 10, flow.Source{Testlib: true})
	exitOn(err)
	cmp, err := synth.Compare(ctx, g, corner.Matches, corner.Lib, synth.FlowOptions{Seed: 42})
	exitOn(err)

	fmt.Printf("\nshared clock period (slowest variant + guard band): %.2f ps\n", cmp.ClockPeriod*1e12)
	fmt.Printf("%-10s %8s %10s %12s %12s %12s\n",
		"scenario", "gates", "area", "delay(ps)", "power(uW)", "leak share")
	for _, sc := range []synth.Scenario{synth.BaselinePowerAware, synth.CryoPAD, synth.CryoPDA} {
		m := cmp.Metrics[sc]
		fmt.Printf("%-10s %8d %10.1f %12.2f %12.3f %11.4f%%\n",
			sc, m.Gates, m.Area, m.Delay*1e12, m.Power.Total()*1e6, m.Power.LeakageShare()*100)
	}
	fmt.Printf("\npower saving vs baseline:  p->a->d %+.2f%%   p->d->a %+.2f%%\n",
		cmp.PowerSaving(synth.CryoPAD)*100, cmp.PowerSaving(synth.CryoPDA)*100)
	fmt.Printf("delay overhead vs baseline: p->a->d %+.2f%%   p->d->a %+.2f%%\n",
		cmp.DelayOverhead(synth.CryoPAD)*100, cmp.DelayOverhead(synth.CryoPDA)*100)

	// Functional safety net: the flow driver checks every variant's mapped
	// netlist against the source AIG and fails on a mismatch.
	for _, sc := range []synth.Scenario{synth.BaselinePowerAware, synth.CryoPAD, synth.CryoPDA} {
		r, err := flow.Run(ctx, g, corner, sc, 42, cmp.ClockPeriod)
		exitOn(err)
		if sc == synth.CryoPAD && *verilog {
			fmt.Println("\nmapped netlist (p->a->d):")
			exitOn(r.Synth.Netlist.WriteVerilog(os.Stdout))
		}
	}
	fmt.Println("\nall three mapped netlists verified against the source AIG.")
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
