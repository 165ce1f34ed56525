// Package wallbench measures the simulator's own wall-clock cost — the
// time and heap traffic the host spends per simulated run — as opposed
// to bench_test.go, which reports the simulated seconds the paper's
// tables care about. Each kernel is a small, deterministic end-to-end
// run pinned to a fixed scale; the harness times it with
// testing.Benchmark, counts B/op and allocs/op over a fixed number of
// runs with the collector paused, and records the simulated seconds
// (which must never change when the host-side code gets faster).
//
// cmd/ooc-bench -wallclock runs the suite, writes BENCH_wallclock.json,
// and — given a committed baseline — gates regressions: ns/op within a
// generous factor (timing is noisy on shared CI), allocs/op exactly
// (allocation counts of deterministic runs are reproducible).
package wallbench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
)

// Result is one kernel's measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// SimS is the simulated seconds the kernel reports. It is recorded
	// so the baseline doubles as a bitwise-identity witness: host-side
	// optimization must leave it unchanged to the digit.
	SimS float64 `json:"sim_s"`
}

// Report is the BENCH_wallclock.json document.
type Report struct {
	Note    string   `json:"note"`
	Kernels []Result `json:"kernels"`
}

// Kernel is one suite entry. Make performs the one-time setup (compile,
// probe) and returns the operation to be timed; the operation returns
// the simulated seconds of the run it performed.
type Kernel struct {
	Name string
	Make func() (func() (float64, error), error)
}

// RunKernel times one kernel.
func RunKernel(k Kernel) (Result, error) {
	op, err := k.Make()
	if err != nil {
		return Result{}, fmt.Errorf("wallbench: %s: setup: %w", k.Name, err)
	}
	// Warm-up run outside the timed region: it validates the kernel once
	// and pays one-time costs (lazy init, map growth) before measuring.
	simS, err := op()
	if err != nil {
		return Result{}, fmt.Errorf("wallbench: %s: %w", k.Name, err)
	}
	checked := func() error {
		s, err := op()
		if err != nil {
			return err
		}
		if s != simS {
			return fmt.Errorf("simulated seconds changed between runs: %v then %v", simS, s)
		}
		return nil
	}
	var opErr error
	br := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N && opErr == nil; i++ {
			opErr = checked()
		}
	})
	if opErr != nil {
		return Result{}, fmt.Errorf("wallbench: %s: %w", k.Name, opErr)
	}
	allocs, bytes, err := countAllocs(checked)
	if err != nil {
		return Result{}, fmt.Errorf("wallbench: %s: %w", k.Name, err)
	}
	return Result{
		Name:        k.Name,
		NsPerOp:     float64(br.NsPerOp()),
		BytesPerOp:  bytes,
		AllocsPerOp: allocs,
		SimS:        simS,
	}, nil
}

// allocOps is the fixed number of runs heap traffic is averaged over.
const allocOps = 16

// countAllocs returns the mean heap allocations and bytes per run over
// allocOps runs. The collector is paused for the count: a GC cycle
// empties internal/bufpool's sync.Pool overflow, so a cycle landing
// inside the window would turn pooled buffers into fresh allocations and
// make the count depend on GC timing. One warm-up run after a forced
// collection refills the pool, so every counted run starts from the
// state the previous one left.
func countAllocs(op func() error) (allocs, bytes int64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := op(); err != nil {
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocOps; i++ {
		if err := op(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) / allocOps, int64(after.TotalAlloc-before.TotalAlloc) / allocOps, nil
}

// RunSuite runs the given kernels (all registered kernels when names is
// empty) and returns the report. Progress goes to stderr so CI logs show
// liveness.
func RunSuite(names []string) (*Report, error) {
	kernels := Kernels
	if len(names) > 0 {
		kernels = nil
		for _, name := range names {
			k, ok := kernelByName(name)
			if !ok {
				return nil, fmt.Errorf("wallbench: unknown kernel %q (have %s)", name, strings.Join(KernelNames(), ", "))
			}
			kernels = append(kernels, k)
		}
	}
	rep := &Report{Note: "wall-clock cost of the simulator itself; sim_s must stay bitwise identical across host-side optimization"}
	for _, k := range kernels {
		fmt.Fprintf(os.Stderr, "wallbench: %s...\n", k.Name)
		r, err := RunKernel(k)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "wallbench: %s: %.0f ns/op  %d B/op  %d allocs/op  sim_s=%v\n",
			k.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.SimS)
		rep.Kernels = append(rep.Kernels, r)
	}
	return rep, nil
}

func kernelByName(name string) (Kernel, bool) {
	for _, k := range Kernels {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// KernelNames lists the registered kernels in suite order.
func KernelNames() []string {
	names := make([]string, len(Kernels))
	for i, k := range Kernels {
		names[i] = k.Name
	}
	return names
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads a report written by WriteFile.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("wallbench: %s: %w", path, err)
	}
	return &r, nil
}

func (r *Report) byName() map[string]Result {
	m := make(map[string]Result, len(r.Kernels))
	for _, k := range r.Kernels {
		m[k.Name] = k
	}
	return m
}

// Compare gates cur against base: every baseline kernel must be present,
// its ns/op within nsFactor of the baseline (wall time is noisy), and
// its allocs/op no worse than the baseline exactly (allocation counts of
// deterministic kernels are reproducible, so any increase is a real
// regression). It returns an error listing every violation.
func Compare(cur, base *Report, nsFactor float64) error {
	curBy := cur.byName()
	var violations []string
	names := make([]string, 0, len(base.Kernels))
	for _, k := range base.Kernels {
		names = append(names, k.Name)
	}
	sort.Strings(names)
	baseBy := base.byName()
	for _, name := range names {
		b := baseBy[name]
		c, ok := curBy[name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: kernel missing from current run", name))
			continue
		}
		if limit := b.NsPerOp * nsFactor; c.NsPerOp > limit {
			violations = append(violations, fmt.Sprintf("%s: ns/op regressed: %.0f > %.1fx baseline %.0f",
				name, c.NsPerOp, nsFactor, b.NsPerOp))
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			violations = append(violations, fmt.Sprintf("%s: allocs/op regressed: %d > baseline %d",
				name, c.AllocsPerOp, b.AllocsPerOp))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("wallbench: benchmark regression:\n  %s", strings.Join(violations, "\n  "))
	}
	return nil
}
