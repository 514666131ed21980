package flow

import (
	"bytes"
	"context"
	"os"
	"testing"
	"time"

	"repro/internal/charlib"
	"repro/internal/epfl"
	"repro/internal/liberty"
	"repro/internal/pdk"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/testlib"
)

// TestSyntheticFlowEndToEnd drives a synthetic 10 K corner through the
// paper's three-scenario comparison on one benchmark.
func TestSyntheticFlowEndToEnd(t *testing.T) {
	ctx := context.Background()
	c, err := LoadCorner(ctx, 10, Source{Testlib: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.TempK != 10 || c.Lib.TempK != 10 || len(c.Cells) == 0 || c.Matches == nil {
		t.Fatalf("corner incomplete: %+v", c)
	}
	g, err := epfl.Build("router")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := synth.Compare(ctx, g, c.Matches, c.Lib, synth.FlowOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.ClockPeriod <= 0 {
		t.Fatalf("clock period %v", cmp.ClockPeriod)
	}
	for _, sc := range []synth.Scenario{synth.BaselinePowerAware, synth.CryoPAD, synth.CryoPDA} {
		m := cmp.Metrics[sc]
		if m.Gates == 0 || m.Power == nil || m.Power.Total() <= 0 {
			t.Errorf("%v: incomplete metrics %+v", sc, m)
		}
	}
}

// TestRunMatchesStageCalls checks the driver against the hand-written stage
// sequence it replaces: Synthesize, sta.Analyze and power.AnalyzeFull called
// one by one must give a bit-identical netlist size, critical delay, power
// split and per-instance power.
func TestRunMatchesStageCalls(t *testing.T) {
	ctx := context.Background()
	c, err := LoadCorner(ctx, 10, Source{Testlib: true})
	if err != nil {
		t.Fatal(err)
	}
	const seed, clock = 1, 1e-9
	for _, name := range []string{"ctrl", "int2float"} {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []synth.Scenario{synth.BaselinePowerAware, synth.CryoPAD, synth.CryoPDA} {
			got, err := Run(ctx, g, c, sc, seed, clock)
			if err != nil {
				t.Fatalf("%s %v: %v", name, sc, err)
			}
			res, err := synth.Synthesize(ctx, g, c.Matches, synth.Options{Scenario: sc, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			timing, err := sta.Analyze(ctx, res.Netlist, c.Lib, sta.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rep, cells, err := power.AnalyzeFull(ctx, res.Netlist, c.Lib, power.Options{ClockPeriod: clock, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			nl := got.Synth.Netlist
			if nl.NumGates() != res.Netlist.NumGates() || nl.Area() != res.Netlist.Area() {
				t.Errorf("%s %v: netlist %d gates / area %v, stage calls %d / %v",
					name, sc, nl.NumGates(), nl.Area(), res.Netlist.NumGates(), res.Netlist.Area())
			}
			if got.Timing.CriticalDelay != timing.CriticalDelay {
				t.Errorf("%s %v: critical delay %v, stage calls %v", name, sc, got.Timing.CriticalDelay, timing.CriticalDelay)
			}
			if *got.Power != *rep {
				t.Errorf("%s %v: power %+v, stage calls %+v", name, sc, *got.Power, *rep)
			}
			if len(got.Cells) != len(cells) {
				t.Fatalf("%s %v: %d instance rows, stage calls %d", name, sc, len(got.Cells), len(cells))
			}
			for i := range cells {
				if got.Cells[i] != cells[i] {
					t.Errorf("%s %v: instance row %d %+v, stage calls %+v", name, sc, i, got.Cells[i], cells[i])
				}
			}
		}
	}
}

// TestLoadCornerReusesSPICECache seeds the cache directory with a corner
// keyed exactly as a SPICE characterization of the full catalog at 300 K
// would be, then loads that corner: the load must come from the cache and
// cover the whole catalog. A cache miss would start a characterization of
// minutes, so the load gets a deadline far above a cache hit's.
func TestLoadCornerReusesSPICECache(t *testing.T) {
	dir := t.TempDir()
	catalog := pdk.Catalog()
	names := make([]string, len(catalog))
	for i, c := range catalog {
		names[i] = c.Name
	}
	lib, _ := testlib.Build(catalog, names, 300)
	for _, c := range catalog {
		if c.Seq { // testlib models combinational cells only
			lib.Cells = append(lib.Cells, &liberty.Cell{Name: c.Name, Area: c.Area()})
		}
	}
	path := charlib.DefaultCachePath(dir, 300, len(catalog))
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	key := charlib.CacheKey(catalog, charlib.DefaultConfig(300))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".meta", []byte(key+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	type loaded struct {
		c   *Corner
		err error
	}
	done := make(chan loaded, 1)
	go func() {
		c, err := LoadCorner(context.Background(), 300, Source{CacheDir: dir, Workers: 1})
		done <- loaded{c, err}
	}()
	var c *Corner
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		c = r.c
	case <-time.After(time.Minute):
		t.Fatal("cached corner not reused: LoadCorner is characterizing")
	}
	if c.Lib.TempK != 300 || len(c.Lib.Cells) != len(catalog) || len(c.Cells) != len(catalog) || c.Matches == nil {
		t.Errorf("corner from cache: %g K, %d library cells, %d PDK cells, matches %v",
			c.Lib.TempK, len(c.Lib.Cells), len(c.Cells), c.Matches != nil)
	}
}
