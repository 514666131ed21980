// Package flow drives the cryogenic design flow from a temperature to a
// signed-off netlist. LoadCorner turns a temperature into a technology
// corner: the characterized liberty library, the PDK cells it covers, and
// the cut-matching index the technology mapper consumes. It is the one place
// that chooses between the synthetic closed-form library and cached SPICE
// characterization. Run takes one circuit through one synthesis scenario at
// a corner: synthesis, a functional check of the mapped netlist, STA and
// power. The commands, examples and the QoR harness load their corners and
// run their scenarios through these two.
package flow

import (
	"context"
	"fmt"

	"repro/internal/charlib"
	"repro/internal/liberty"
	"repro/internal/mapper"
	"repro/internal/pdk"
	"repro/internal/testlib"
)

// Corner is one temperature corner, ready for synthesis and signoff.
type Corner struct {
	TempK   float64
	Lib     *liberty.Library
	Cells   []*pdk.Cell // the PDK cells Lib characterizes
	Matches *mapper.MatchLibrary
}

// Source selects where a corner's library comes from.
type Source struct {
	// Testlib selects the synthetic closed-form library (no SPICE) over
	// the SPICE-characterized 200-cell library.
	Testlib bool
	// CacheDir holds the SPICE-characterized liberty files ("build" when
	// empty); a cached library is reused instead of re-characterized.
	CacheDir string
	// Workers is the characterization worker pool size (0 = GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives characterization progress.
	Progress func(done, total int)
}

// matchK is the match library's cut size: every catalog cell has at most
// six inputs.
const matchK = 6

// LoadCorner builds (or loads from the cache) the library at tempK and its
// match library.
func LoadCorner(ctx context.Context, tempK float64, src Source) (*Corner, error) {
	catalog := pdk.Catalog()
	c := &Corner{TempK: tempK}
	if src.Testlib {
		c.Lib, c.Cells = testlib.Build(catalog, testlib.Names(), tempK)
	} else {
		dir := src.CacheDir
		if dir == "" {
			dir = "build"
		}
		cfg := charlib.DefaultConfig(tempK)
		cfg.Workers = src.Workers
		lib, err := charlib.CharacterizeLibraryCached(ctx,
			charlib.DefaultCachePath(dir, tempK, len(catalog)),
			fmt.Sprintf("cryo%gk", tempK), catalog, cfg, src.Progress)
		if err != nil {
			return nil, fmt.Errorf("flow: characterizing %g K corner: %w", tempK, err)
		}
		c.Lib, c.Cells = lib, catalog
	}
	ml, err := mapper.BuildMatchLibrary(c.Lib, c.Cells, matchK)
	if err != nil {
		return nil, fmt.Errorf("flow: match library at %g K: %w", tempK, err)
	}
	c.Matches = ml
	return c, nil
}
