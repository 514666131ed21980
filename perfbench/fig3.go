package main

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/aig"
	"repro/internal/cec"
	"repro/internal/epfl"
	"repro/internal/liberty"
	"repro/internal/mapper"
	"repro/internal/pdk"
	"repro/internal/synth"
	"repro/internal/testlib"
)

// fig3Circuits is the fixed EPFL subset of the Fig 3 sweep. The slow tail
// (priority, sqrt, hyp, div, sin: 12-150 s each) is left out.
var fig3Circuits = []string{
	"arbiter", "voter", "log2", "square", "multiplier", "mem_ctrl", "int2float",
	"dec", "cavlc", "i2c", "router", "ctrl", "adder", "bar", "max",
}

var fig3Scenarios = []synth.Scenario{synth.BaselinePowerAware, synth.CryoPAD, synth.CryoPDA}

// The paper's Fig 3 average power savings, printed beside the measured ones.
const (
	paperSavingPAD = 6.47
	paperSavingPDA = 5.74
)

// fig3Workload is the paper's Fig 3 sweep as `cryosynth -fig3` runs it:
// synth.Compare of every circuit on the 10 K synthetic library.
type fig3Workload struct {
	seed  int64
	lib   *liberty.Library
	ml    *mapper.MatchLibrary
	aigs  []*aig.AIG
	cmps  []*synth.Comparison // last pass
	truth map[string]opRef    // "circuit/scenario" -> re-synthesized reference
}

// opRef is the independent re-synthesis of one (circuit, scenario).
type opRef struct {
	gates int
	area  float64
	cec   cec.Status
	err   error
}

// buildSynthInputs is the shared set-up of the synthesis workloads: the
// 10 K synthetic library, its match library and the source AIGs.
func buildSynthInputs(names []string) (*liberty.Library, *mapper.MatchLibrary, []*aig.AIG, error) {
	lib, cells := testlib.Build(pdk.Catalog(), testlib.Names(), 10)
	ml, err := mapper.BuildMatchLibrary(lib, cells, 6)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("match library: %w", err)
	}
	var gs []*aig.AIG
	for _, n := range names {
		g, err := epfl.Build(n)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("build %s: %w", n, err)
		}
		gs = append(gs, g)
	}
	return lib, ml, gs, nil
}

func (w *fig3Workload) setup(seed int64) error {
	lib, ml, gs, err := buildSynthInputs(fig3Circuits)
	if err != nil {
		return err
	}
	w.seed, w.lib, w.ml, w.aigs = seed, lib, ml, gs
	return nil
}

func (w *fig3Workload) pass(ctx context.Context, sp *span) error {
	w.cmps = w.cmps[:0]
	for _, g := range w.aigs {
		c := sp.child("synth.compare")
		cmp, err := synth.Compare(ctx, g, w.ml, w.lib, synth.FlowOptions{Seed: w.seed})
		c.finish()
		if err != nil {
			return err
		}
		w.cmps = append(w.cmps, cmp)
	}
	return nil
}

// verify checks every (circuit, scenario) of the pass against an
// independent same-seed synthesis, done once per run: that netlist must be
// cec EQUAL to its source AIG, and its gate count and area must match what
// Compare reported.
func (w *fig3Workload) verify() (int, []string, map[string]float64, error) {
	if w.truth == nil {
		w.truth = w.resynthesize()
	}
	var failed []string
	fp := map[string]float64{}
	for i, cmp := range w.cmps {
		for _, sc := range fig3Scenarios {
			op := fig3Circuits[i] + "/" + sc.String()
			m := cmp.Metrics[sc]
			ref := w.truth[op]
			switch {
			case ref.err != nil:
				failed = append(failed, fmt.Sprintf("%s: re-synthesis: %v", op, ref.err))
			case ref.cec != cec.Equal:
				failed = append(failed, fmt.Sprintf("%s: netlist is %v to its source AIG", op, ref.cec))
			case ref.gates != m.Gates || ref.area != m.Area:
				failed = append(failed, fmt.Sprintf("%s: Compare reported %d gates, area %g; netlist has %d gates, area %g",
					op, m.Gates, m.Area, ref.gates, ref.area))
			}
			fp[op+".gates"] = float64(m.Gates)
			fp[op+".area"] = m.Area
			fp[op+".delay"] = m.Delay
			fp[op+".power"] = m.Power.Total()
		}
	}
	return len(w.cmps) * len(fig3Scenarios), failed, fp, nil
}

// resynthesize synthesizes every (circuit, scenario) with the options
// Compare uses and proves each netlist against its AIG, on poolWorkers
// goroutines.
func (w *fig3Workload) resynthesize() map[string]opRef {
	type job struct {
		g  *aig.AIG
		sc synth.Scenario
		op string
	}
	var jobs []job
	for i, g := range w.aigs {
		for _, sc := range fig3Scenarios {
			jobs = append(jobs, job{g, sc, fig3Circuits[i] + "/" + sc.String()})
		}
	}
	out := make(map[string]opRef, len(jobs))
	var mu sync.Mutex
	next := make(chan job)
	var wg sync.WaitGroup
	for k := 0; k < poolWorkers(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				r := w.proveOne(j.g, j.sc)
				mu.Lock()
				out[j.op] = r
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return out
}

func (w *fig3Workload) proveOne(g *aig.AIG, sc synth.Scenario) opRef {
	ctx := context.Background()
	res, err := synth.Synthesize(ctx, g, w.ml, synth.Options{Scenario: sc, Seed: w.seed})
	if err != nil {
		return opRef{err: err}
	}
	ea, err := cec.Elaborate(res.Netlist)
	if err != nil {
		return opRef{err: err}
	}
	v := cec.Check(ctx, g, ea, cec.Options{Seed: w.seed})
	return opRef{gates: res.Netlist.NumGates(), area: res.Netlist.Area(), cec: v.Status}
}

// simulated returns the sweep's modelled-circuit results: mean power
// savings of the two cryogenic-aware scenarios against the baseline, and
// 10 K totals over all circuits and scenarios.
func (w *fig3Workload) simulated() map[string]float64 {
	var pad, pda, pw, area, delay float64
	for _, cmp := range w.cmps {
		pad += cmp.PowerSaving(synth.CryoPAD) * 100
		pda += cmp.PowerSaving(synth.CryoPDA) * 100
		for _, sc := range fig3Scenarios {
			m := cmp.Metrics[sc]
			pw += m.Power.Total() * 1e6
			area += m.Area
			delay += m.Delay * 1e12
		}
	}
	n := float64(len(w.cmps))
	return map[string]float64{
		"fig3_saving_pad_pct": pad / n,
		"fig3_saving_pda_pct": pda / n,
		"fig3_power_uw":       pw,
		"fig3_area":           area,
		"fig3_delay_ps":       delay,
	}
}

// printSimulated prints the simulated Fig 3 figures beside the paper's.
func printSimulated(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("simulated results (modelled circuit, not host time):")
	for _, k := range keys {
		note := ""
		switch k {
		case "fig3_saving_pad_pct":
			note = fmt.Sprintf("  (paper: %.2f %%)", paperSavingPAD)
		case "fig3_saving_pda_pct":
			note = fmt.Sprintf("  (paper: %.2f %%)", paperSavingPDA)
		}
		fmt.Printf("  %-36s %14.6g%s\n", k, m[k], note)
	}
	fmt.Println("  the device model is validated only against the repo's synthetic probe-station data")
}
