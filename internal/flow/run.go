package flow

import (
	"context"
	"fmt"

	"repro/internal/aig"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/synth"
)

// Result is one scenario run at one corner: the synthesized netlist and its
// timing and power signoff.
type Result struct {
	Synth  *synth.Result
	Timing *sta.Result
	Power  *power.Report
	Cells  []power.CellPower // per-instance power attribution
}

// verifyRounds is the number of 64-vector rounds of the functional check
// (256 vectors).
const verifyRounds = 4

// Run synthesizes g under the scenario against the corner, checks the mapped
// netlist against g on seeded random vectors, and signs it off: STA, and
// power at the clockSec period with seeded random-vector activity. A
// functional mismatch is an error: signoff numbers of a wrong netlist are
// worse than none.
func Run(ctx context.Context, g *aig.AIG, c *Corner, sc synth.Scenario, seed int64, clockSec float64) (*Result, error) {
	res, err := synth.Synthesize(ctx, g, c.Matches, synth.Options{Scenario: sc, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("flow: %s %v synthesis at %g K: %w", g.Name, sc, c.TempK, err)
	}
	if err := synth.VerifyMapped(g, res, verifyRounds, seed); err != nil {
		return nil, fmt.Errorf("flow: %s %v functional check at %g K: %w", g.Name, sc, c.TempK, err)
	}
	timing, err := sta.Analyze(ctx, res.Netlist, c.Lib, sta.Options{})
	if err != nil {
		return nil, fmt.Errorf("flow: %s %v STA at %g K: %w", g.Name, sc, c.TempK, err)
	}
	rep, cells, err := power.AnalyzeFull(ctx, res.Netlist, c.Lib, power.Options{ClockPeriod: clockSec, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("flow: %s %v power at %g K: %w", g.Name, sc, c.TempK, err)
	}
	return &Result{Synth: res, Timing: timing, Power: rep, Cells: cells}, nil
}
