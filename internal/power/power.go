// Package power implements signoff-style power analysis of mapped netlists:
// leakage, internal, and net-switching power, split exactly the way the
// paper's Fig. 2(c) reports them. Switching activity comes from a gsim
// simulation of the netlist; slews and loads come from STA.
package power

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/gsim"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sta"
)

// simRounds is the number of 64-vector rounds of random stimulus the
// default activity run simulates.
const simRounds = 8

// Options configures a power run.
type Options struct {
	ClockPeriod float64 // cycle time used to convert per-cycle energy to watts
	Seed        int64   // stimulus seed of the default activity run
	STA         sta.Options
	// Activity, when it carries rates, overrides the default zero-delay
	// random-vector run (Seed is then unused): pass a gsim Result.Activity
	// to sign off with measured — e.g. glitch-aware event-driven —
	// activity. Nets absent from it are treated as quiet.
	Activity gsim.Activity
}

// Report is the power breakdown in watts.
type Report struct {
	Leakage   float64
	Internal  float64
	Switching float64
	// ClockPeriod echoes the normalization period used.
	ClockPeriod float64
}

// Total returns the summed power.
func (r *Report) Total() float64 { return r.Leakage + r.Internal + r.Switching }

// LeakageShare returns the leakage fraction of total power (the quantity
// the paper shows collapsing from ~15 % at 300 K to ~0.003 % at 10 K).
func (r *Report) LeakageShare() float64 {
	t := r.Total()
	if t == 0 {
		return 0
	}
	return r.Leakage / t
}

// Analyze computes the three-way power split of a mapped netlist.
func Analyze(ctx context.Context, nl *netlist.Netlist, lib *liberty.Library, opt Options) (*Report, error) {
	rep, _, err := AnalyzeFull(ctx, nl, lib, opt)
	return rep, err
}

// AnalyzeFull computes the power totals and the per-instance attribution
// (the "report_power -cell" view of a signoff tool) in one STA + activity
// pass. The per-instance rows sum to the Report's totals except for
// primary-input net switching, which has no owning gate. The Report sums are
// accumulated in a deterministic order (gates for leakage/internal, sorted
// nets for switching), so totals are bit-identical whichever entry point is
// used — the QoR regression gate compares them exactly.
func AnalyzeFull(ctx context.Context, nl *netlist.Netlist, lib *liberty.Library, opt Options) (*Report, []CellPower, error) {
	ctx, span := obs.Start(ctx, "power.analyze")
	span.SetAttr("design", nl.Name)
	defer span.End()
	obs.C("power.analyses").Inc()
	if opt.ClockPeriod <= 0 {
		return nil, nil, fmt.Errorf("power: clock period must be positive")
	}
	timing, err := sta.Analyze(ctx, nl, lib, opt.STA)
	if err != nil {
		return nil, nil, err
	}
	rates := opt.Activity.Rates
	if rates != nil {
		span.SetAttr("activity", "measured")
		obs.C("power.measured_activity").Inc()
	} else {
		m, err := gsim.Compile(nl)
		if err != nil {
			return nil, nil, fmt.Errorf("power: %w", err)
		}
		res, err := gsim.NewLevelized(m).Run(ctx, m.RandomVectors(simRounds*64, opt.Seed))
		if err != nil {
			return nil, nil, fmt.Errorf("power: %w", err)
		}
		rates = res.ToggleRates()
	}
	rep := &Report{ClockPeriod: opt.ClockPeriod}
	freq := 1.0 / opt.ClockPeriod
	vdd := lib.Vdd
	cells := make([]CellPower, 0, len(nl.Gates))
	for _, g := range nl.Gates {
		lc := lib.FindCell(g.Cell)
		if lc == nil {
			return nil, nil, fmt.Errorf("power: cell %s not in library", g.Cell)
		}
		def := nl.Cell(g.Cell)
		cp := CellPower{Gate: g.Name, Cell: g.Cell, Leakage: lc.LeakagePower}
		rep.Leakage += cp.Leakage

		// Internal power: per output-net toggle, the average of rise/fall
		// internal energy at the gate's operating point, attributed to the
		// worst-slew input arc (PrimeTime-style simplification).
		alpha := rates[g.Output]
		if alpha > 0 {
			load := timing.Load[g.Output]
			outPin := def.Outputs[0]
			var eSum float64
			var arcs int
			for i, in := range g.Inputs {
				pw := lc.Power(outPin, def.Inputs[i])
				if pw == nil {
					continue
				}
				slew := timing.Slew[in]
				eSum += 0.5 * (pw.RisePower.Lookup(slew, load) + pw.FallPower.Lookup(slew, load))
				arcs++
			}
			if arcs > 0 {
				cp.Internal = alpha * freq * (eSum / float64(arcs))
				rep.Internal += cp.Internal
			}
			// Switching charged to the gate's output net (the Report's
			// switching total is summed separately below so primary-input
			// nets, which no gate owns, are included too).
			cp.Switching = alpha * freq * 0.5 * load * vdd * vdd
		}
		cells = append(cells, cp)
	}
	// Net switching power: alpha * f * 1/2 * C * Vdd^2 over driven nets.
	// Nets are visited in sorted order so the floating-point sum is
	// bit-reproducible run to run (map order would perturb the last ULP,
	// which the QoR regression gate compares exactly).
	nets := make([]string, 0, len(timing.Load))
	for net := range timing.Load {
		nets = append(nets, net)
	}
	sort.Strings(nets)
	for _, net := range nets {
		alpha := rates[net]
		if alpha == 0 {
			continue
		}
		rep.Switching += alpha * freq * 0.5 * timing.Load[net] * vdd * vdd
	}
	return rep, cells, nil
}
