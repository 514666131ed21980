package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/charlib"
)

// runSmall runs set-up, two passes and their checks of a workload on a
// reduced input set, and requires every operation to pass and both passes
// to agree.
func runSmall(t *testing.T, w workload, wantOps int) {
	t.Helper()
	if err := w.setup(3); err != nil {
		t.Fatal(err)
	}
	var samples []passSample
	for i := 0; i < 2; i++ {
		if err := w.pass(context.Background(), newSpan("pass")); err != nil {
			t.Fatal(err)
		}
		ops, failed, fp, err := w.verify()
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, passSample{Ops: ops, Failed: failed, Fingerprint: fp})
	}
	checkDeterminism(samples)
	attempted, failed := score(samples)
	if attempted != 2*wantOps || failed != 0 {
		t.Fatalf("%d attempted, %d failed (want %d, 0): %v %v", attempted, failed, 2*wantOps, samples[0].Failed, samples[1].Failed)
	}
}

// swap replaces *p with v for the rest of the test.
func swap[T any](t *testing.T, p *T, v T) {
	old := *p
	*p = v
	t.Cleanup(func() { *p = old })
}

func TestFig3SmallCircuits(t *testing.T) {
	swap(t, &fig3Circuits, []string{"ctrl", "router", "i2c"})
	w := &fig3Workload{}
	runSmall(t, w, 3*len(fig3Scenarios))
	if len(w.simulated()) != 5 {
		t.Errorf("simulated = %v", w.simulated())
	}
}

func TestSignoffSmallCircuits(t *testing.T) {
	swap(t, &signoffCircuits, []string{"mem_ctrl", "i2c"})
	runSmall(t, &signoffWorkload{}, 2)
}

// chdirRoot moves the test to the root of the checkout, where the char
// workload reads its reference tables and writes its caches.
func chdirRoot(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

var update = flag.Bool("update", false, "rewrite the char reference tables by characterizing the slice with this code")

// TestCharReference checks that the committed reference tables cover
// exactly the char slice at both corners. With -update it first rewrites
// them; do that only in a change meant to move characterized numbers.
func TestCharReference(t *testing.T) {
	chdirRoot(t)
	cells, err := sliceCells()
	if err != nil {
		t.Fatal(err)
	}
	for _, temp := range charCorners {
		if *update {
			lib, err := charlib.CharacterizeLibrary(context.Background(), fmt.Sprintf("slice%gK", temp), cells, charConfig(temp), nil)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := lib.Write(&buf); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(charRefPath(temp), buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := readLiberty(charRefPath(temp))
		if err != nil {
			t.Fatal(err)
		}
		if ref.TempK != temp || len(ref.Cells) != len(charCells) {
			t.Fatalf("%s: %g K with %d cells, want %g K with %d", charRefPath(temp), ref.TempK, len(ref.Cells), temp, len(charCells))
		}
		for _, name := range charCells {
			if ref.FindCell(name) == nil {
				t.Errorf("%s lacks %s", charRefPath(temp), name)
			}
		}
	}
}

func TestCharSmallSlice(t *testing.T) {
	if testing.Short() {
		t.Skip("runs SPICE characterization")
	}
	chdirRoot(t)
	swap(t, &charCells, []string{"INVx1", "NAND2x1"})
	w := &charWorkload{}
	runSmall(t, w, 2*len(charCorners))
	if ns := w.probe()["device.eval_ns"]; !(ns > 0) {
		t.Errorf("device.eval_ns = %g", ns)
	}
}
