package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter captures the process counters at the start of a pass; stop turns
// them into the pass's host-cost figures.
type meter struct {
	t0   time.Time
	cpu0 float64
	rt0  [2]float64 // heap bytes allocated, GC CPU seconds
}

// passCost is the host cost of one pass.
type passCost struct {
	Wall         float64 `json:"wall_s"`
	CPU          float64 `json:"cpu_s"`
	GCCPU        float64 `json:"gc_cpu_s"`
	AllocBytes   float64 `json:"alloc_bytes"`
	PeakRSSBytes float64 `json:"peak_rss_bytes"`
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() [2]float64 {
	metrics.Read(rtSamples)
	var out [2]float64
	for i, s := range rtSamples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// processCPU is the process's user+system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// startMeter returns the heap to the OS and resets the kernel's peak-RSS
// mark, so the peak read at stop belongs to this pass alone, then starts
// the clocks. The reset happens before timing starts.
func startMeter() (*meter, error) {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	return &meter{t0: time.Now(), cpu0: processCPU(), rt0: readRuntime()}, nil
}

func (m *meter) stop() (passCost, error) {
	wall := time.Since(m.t0).Seconds()
	cpu := processCPU() - m.cpu0
	rt := readRuntime()
	rss, err := peakRSS()
	if err != nil {
		return passCost{}, err
	}
	return passCost{
		Wall: wall, CPU: cpu,
		AllocBytes: rt[0] - m.rt0[0], GCCPU: rt[1] - m.rt0[1],
		PeakRSSBytes: rss,
	}, nil
}

// peakRSS reads VmHWM, the resident-set high-water mark since the last
// reset.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// poolWorkers is the worker count for parallel work (characterization
// pool, fig3 re-synthesis): GOMAXPROCS, never more than the CPUs.
func poolWorkers() int {
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// machineTag identifies what produced a record. Host-time figures compare
// only between records with equal CPU, NProc, GOMAXPROCS and Go version.
type machineTag struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Tree       string `json:"tree"`
}

func machine() machineTag {
	return machineTag{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit,
		Tree:       treeHash("."),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision of the checkout, set at link time by run.sh
// ("+dirty" marks uncommitted changes to tracked files). It stays
// "unknown" outside a git checkout; treeHash identifies the sources either
// way.
var commit = "unknown"

// treeHash fingerprints the Go sources under root (go.mod and *.go files,
// skipping hidden directories), so records from the same code match even
// where no VCS metadata exists.
func treeHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not change the fingerprint
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (d.Name() == "go.mod" || strings.HasSuffix(d.Name(), ".go")) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
