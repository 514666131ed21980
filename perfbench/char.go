package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/charlib"
	"repro/internal/device"
	"repro/internal/liberty"
	"repro/internal/pdk"
)

// charCells is the characterized slice, from INV to a flip-flop: inverting
// gates, a complex AOI gate, XOR and a flop, so transient arcs, the clock
// arc and DC leakage (including the latch-state aid) are all exercised. It
// is kept small enough that several cold passes fit in one run.
var charCells = []string{
	"INVx1", "NAND2x1", "NOR2x1", "AOI21x1", "XOR2x1", "DFFx1",
}

// charCorners are the paper's two characterization temperatures (K).
var charCorners = []float64{300, 10}

const (
	// charRefDir holds the reference tables committed with the benchmark.
	charRefDir = "perfbench/testdata"
	// charCacheDir is where passes write their fresh liberty caches.
	charCacheDir = ".bench_build/charcache"
	// charTolerance is the largest relative deviation from the reference
	// tables a pass may show (the ROADMAP's numerics tolerance).
	charTolerance = 0.005
	// charWarmTolerance bounds cold-vs-warm differences, which only come
	// from the liberty writer's 6 significant digits.
	charWarmTolerance = 1e-5
)

// charWorkload is cold SPICE characterization of the slice at both corners
// on the paper's 7x7 grid, through the liberty cache into a fresh
// directory, then the warm-cache reload of the same corners.
type charWorkload struct {
	cells []*pdk.Cell
	ref   map[float64]*liberty.Library
	n     int // passes run

	// Outputs of the last pass.
	dir        string
	cold, warm map[float64]*liberty.Library
	hit        map[float64]bool
}

func charConfig(tempK float64) charlib.Config {
	cfg := charlib.DefaultConfig(tempK)
	cfg.Workers = poolWorkers()
	return cfg
}

func charRefPath(tempK float64) string {
	return filepath.Join(charRefDir, fmt.Sprintf("char_%gK.lib", tempK))
}

// sliceCells looks the slice up in the PDK catalog.
func sliceCells() ([]*pdk.Cell, error) {
	catalog := pdk.Catalog()
	var cells []*pdk.Cell
	for _, name := range charCells {
		c := pdk.FindCell(catalog, name)
		if c == nil {
			return nil, fmt.Errorf("cell %s not in the PDK catalog", name)
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// setup builds the PDK cells and loads the reference tables. The slice has
// no random inputs, so the seed does not change it.
func (w *charWorkload) setup(int64) error {
	cells, err := sliceCells()
	if err != nil {
		return err
	}
	w.cells = cells
	w.ref = map[float64]*liberty.Library{}
	for _, t := range charCorners {
		lib, err := readLiberty(charRefPath(t))
		if err != nil {
			return fmt.Errorf("reference tables: %w", err)
		}
		w.ref[t] = lib
	}
	return nil
}

func readLiberty(path string) (*liberty.Library, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	lib, err := liberty.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return lib, nil
}

func (w *charWorkload) cachePath(tempK float64) string {
	return charlib.DefaultCachePath(w.dir, tempK, len(w.cells))
}

func (w *charWorkload) pass(ctx context.Context, sp *span) error {
	w.n++
	w.dir = filepath.Join(charCacheDir, fmt.Sprintf("%d-%d", os.Getpid(), w.n))
	w.cold = map[float64]*liberty.Library{}
	w.warm = map[float64]*liberty.Library{}
	w.hit = map[float64]bool{}
	for _, t := range charCorners {
		c := sp.child("charlib.cold")
		lib, err := charlib.CharacterizeLibraryCached(ctx, w.cachePath(t), fmt.Sprintf("slice%gK", t), w.cells, charConfig(t), nil)
		c.finish()
		if err != nil {
			return fmt.Errorf("characterize %g K: %w", t, err)
		}
		w.cold[t] = lib
	}
	for _, t := range charCorners {
		before, err := os.Stat(w.cachePath(t))
		if err != nil {
			return err
		}
		c := sp.child("charlib.warm_load")
		lib, err := charlib.CharacterizeLibraryCached(ctx, w.cachePath(t), fmt.Sprintf("slice%gK", t), w.cells, charConfig(t), nil)
		c.finish()
		if err != nil {
			return fmt.Errorf("warm load %g K: %w", t, err)
		}
		after, err := os.Stat(w.cachePath(t))
		if err != nil {
			return err
		}
		// A miss re-characterizes and renames a new file into place.
		w.hit[t] = os.SameFile(before, after) && before.ModTime().Equal(after.ModTime())
		w.warm[t] = lib
	}
	return nil
}

// verify checks each (cell, corner) against the committed reference
// tables, delay monotonicity in load, the warm reload against the cold
// tables, and 10 K leakage below 300 K leakage.
func (w *charWorkload) verify() (int, []string, map[string]float64, error) {
	defer os.RemoveAll(w.dir)
	bad := map[string]string{} // op -> first problem
	fail := func(op, format string, args ...any) {
		if _, seen := bad[op]; !seen {
			bad[op] = op + ": " + fmt.Sprintf(format, args...)
		}
	}
	fp := map[string]float64{}
	for _, t := range charCorners {
		for _, c := range w.cells {
			op := fmt.Sprintf("%s@%gK", c.Name, t)
			cold := w.cold[t].FindCell(c.Name)
			ref := w.ref[t].FindCell(c.Name)
			warm := w.warm[t].FindCell(c.Name)
			if cold == nil || ref == nil || warm == nil {
				fail(op, "cell missing from the cold, reference or warm library")
				continue
			}
			if !w.hit[t] {
				fail(op, "warm load re-characterized instead of hitting the cache")
			}
			if msg := compareCells(cold, ref, charTolerance); msg != "" {
				fail(op, "vs reference: %s", msg)
			}
			if msg := compareCells(warm, cold, charWarmTolerance); msg != "" {
				fail(op, "warm reload vs cold: %s", msg)
			}
			if msg := monotoneInLoad(cold); msg != "" {
				fail(op, "%s", msg)
			}
			fp[op] = cellHash(cold)
		}
	}
	for _, c := range w.cells {
		hot, cold := w.cold[300].FindCell(c.Name), w.cold[10].FindCell(c.Name)
		if hot != nil && cold != nil && !(cold.LeakagePower < hot.LeakagePower) {
			fail(fmt.Sprintf("%s@10K", c.Name), "10 K leakage %g W not below 300 K leakage %g W", cold.LeakagePower, hot.LeakagePower)
		}
	}
	var failed []string
	for _, msg := range bad {
		failed = append(failed, msg)
	}
	sort.Strings(failed)
	return len(w.cells) * len(charCorners), failed, fp, nil
}

// namedTable is one NLDM table of a cell with a printable location.
type namedTable struct {
	where string
	t     *liberty.Table
}

// cellTables lists the cell's delay, transition and energy tables in
// liberty order, with the leakage as a 1x1 table.
func cellTables(c *liberty.Cell) []namedTable {
	out := []namedTable{{"leakage", &liberty.Table{Values: [][]float64{{c.LeakagePower}}}}}
	for _, p := range c.Outputs() {
		for _, tm := range p.Timings {
			at := p.Name + "<-" + tm.RelatedPin
			out = append(out,
				namedTable{at + " cell_rise", tm.CellRise}, namedTable{at + " cell_fall", tm.CellFall},
				namedTable{at + " rise_transition", tm.RiseTrans}, namedTable{at + " fall_transition", tm.FallTrans})
		}
		for _, pw := range p.Powers {
			at := p.Name + "<-" + pw.RelatedPin
			out = append(out, namedTable{at + " rise_power", pw.RisePower}, namedTable{at + " fall_power", pw.FallPower})
		}
	}
	return out
}

// compareCells reports the first value of got deviating from want by more
// than tol (relative), or a structural mismatch; "" when they agree.
func compareCells(got, want *liberty.Cell, tol float64) string {
	g, r := cellTables(got), cellTables(want)
	if len(g) != len(r) {
		return fmt.Sprintf("%d tables, want %d", len(g), len(r))
	}
	for k := range g {
		if g[k].where != r[k].where {
			return fmt.Sprintf("table %s, want %s", g[k].where, r[k].where)
		}
		gt, rt := g[k].t, r[k].t
		if gt == nil || rt == nil {
			if (gt == nil) != (rt == nil) {
				return g[k].where + ": table missing"
			}
			continue
		}
		if len(gt.Values) != len(rt.Values) {
			return fmt.Sprintf("%s: %d rows, want %d", g[k].where, len(gt.Values), len(rt.Values))
		}
		for i := range gt.Values {
			if len(gt.Values[i]) != len(rt.Values[i]) {
				return fmt.Sprintf("%s: row %d has %d entries, want %d", g[k].where, i, len(gt.Values[i]), len(rt.Values[i]))
			}
			for j, v := range gt.Values[i] {
				want := rt.Values[i][j]
				if dev := relDev(v, want); dev > tol {
					return fmt.Sprintf("%s[%d][%d] = %g deviates %.3g%% from %g", g[k].where, i, j, v, 100*dev, want)
				}
			}
		}
	}
	return ""
}

// relDev is |a-b| relative to the larger magnitude (0 when both are 0).
func relDev(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// monotoneInLoad reports a delay table row that decreases as the output
// load grows.
func monotoneInLoad(c *liberty.Cell) string {
	for _, p := range c.Outputs() {
		for _, tm := range p.Timings {
			for _, t := range []*liberty.Table{tm.CellRise, tm.CellFall} {
				if t == nil {
					continue
				}
				for i, row := range t.Values {
					for j := 1; j < len(row); j++ {
						if row[j] < row[j-1] {
							return fmt.Sprintf("%s<-%s delay falls with load at slew %d, load %d", p.Name, tm.RelatedPin, i, j)
						}
					}
				}
			}
		}
	}
	return ""
}

// cellHash fingerprints every table value bit for bit (53 bits, so the
// value survives a float64).
func cellHash(c *liberty.Cell) float64 {
	h := fnv.New64a()
	var b [8]byte
	for _, nt := range cellTables(c) {
		h.Write([]byte(nt.where))
		if nt.t == nil {
			continue
		}
		for _, row := range nt.t.Values {
			for _, v := range row {
				u := math.Float64bits(v)
				for i := range b {
					b[i] = byte(u >> (8 * i))
				}
				h.Write(b[:])
			}
		}
	}
	return float64(h.Sum64() >> 11)
}

// probe times device.Model.Conductances, the compact-model evaluation the
// SPICE Newton loop calls per device per iteration, over a fixed bias grid
// for n and p devices at both corners. It reports the median of several
// sweeps in nanoseconds per call.
func (w *charWorkload) probe() map[string]float64 {
	const steps = 64
	const vdd = 0.7
	type dev struct {
		m    *device.Model
		sign float64
		t    float64
	}
	var devs []dev
	for _, t := range charCorners {
		devs = append(devs, dev{device.NewN(1), 1, t}, dev{device.NewP(1), -1, t})
	}
	var sink float64
	var perCall []float64
	for rep := 0; rep < 7; rep++ {
		t0 := time.Now()
		calls := 0
		for _, d := range devs {
			for i := 0; i < steps; i++ {
				vgs := d.sign * vdd * float64(i) / (steps - 1)
				for j := 0; j < steps; j++ {
					vds := d.sign * vdd * float64(j) / (steps - 1)
					ids, gm, gds := d.m.Conductances(vgs, vds, d.t)
					sink += ids + gm + gds
					calls++
				}
			}
		}
		perCall = append(perCall, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	deviceSink = sink
	return map[string]float64{"device.eval_ns": median(perCall)}
}

// deviceSink keeps the probe's model evaluations from being optimized away.
var deviceSink float64
