package exec

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// bcEquivScenario is one entry of the golden matrix: a compiled program
// and the options it runs under, checked against outputs frozen from the
// plan-tree interpreter (golden_test.go). The two kill-and-resume
// scenarios keep the names of the cross-engine resume pair the matrix
// used to hold: row-slab resumes from the run's initial checkpoint,
// column-slab from a mid-loop one carrying staging and auto-staging
// state. In both, the manifests the resume reads must be byte-identical
// to the ones the old engine wrote.
type bcEquivScenario struct {
	name    string
	source  string
	copts   compiler.Options
	fills   map[string]func(int, int) float64
	options Options // Trace filled in per run
	outputs []string
	resume  string // "" for a plain run, else the kill-and-resume pair member
}

func bcEquivScenarios() []bcEquivScenario {
	transposeFill := map[string]func(int, int) float64{
		"a": func(gi, gj int) float64 { return float64(gi*64 + gj + 1) },
	}
	return []bcEquivScenario{
		{
			name:    "gaxpy/row-slab",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("row-slab"),
			fills:   sweepFills(),
			outputs: []string{"c"},
		},
		{
			name:    "gaxpy/column-slab/sieve",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("column-slab"),
			fills:   sweepFills(),
			options: Options{Runtime: oocarray.Options{Sieve: true}},
			outputs: []string{"c"},
		},
		{
			name:    "gaxpy/row-slab/prefetch-writebehind",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("row-slab"),
			fills:   sweepFills(),
			options: Options{Runtime: oocarray.Options{Prefetch: true, WriteBehind: true}},
			outputs: []string{"c"},
		},
		{
			name:    "gaxpy/phantom",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("column-slab"),
			options: Options{Phantom: true},
		},
		{
			name:   "gaxpy/chaos-transient",
			source: hpf.GaxpySource,
			copts:  gaxpyScenarioOpts("row-slab"),
			fills:  sweepFills(),
			options: Options{
				FS:         nil, // fresh chaos FS per run, same seed
				Resilience: nil,
			},
			outputs: []string{"c"},
		},
		{
			name:    "gaxpy/parity",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("column-slab"),
			fills:   sweepFills(),
			options: Options{Parity: true},
			outputs: []string{"c"},
		},
		{
			name:    "gaxpy/checkpoint",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("row-slab"),
			fills:   sweepFills(),
			options: Options{Checkpoint: &CheckpointSpec{Every: 1}},
			outputs: []string{"c"},
		},
		{
			name:    "gaxpy/tree-ckpt-bytecode-resume",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("row-slab"),
			fills:   sweepFills(),
			options: Options{Checkpoint: &CheckpointSpec{Every: 1}},
			outputs: []string{"c"},
			resume:  "bc-resumes-tree",
		},
		{
			name:    "gaxpy/bytecode-ckpt-tree-resume",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("column-slab"),
			fills:   sweepFills(),
			options: Options{Checkpoint: &CheckpointSpec{Every: 1}},
			outputs: []string{"c"},
			resume:  "tree-resumes-bc",
		},
		{
			name:    "stencil/shift-exchange",
			source:  shiftSource,
			copts:   compiler.Options{N: 32, Procs: 4, MemElems: 32 * 4},
			fills:   map[string]func(int, int) float64{"x": shiftFillX},
			outputs: []string{"z"},
		},
		{
			name:    "transpose/direct",
			source:  hpf.TransposeSource,
			copts:   compiler.Options{N: 64, Procs: 4, MemElems: 16 * 64, Force: "direct"},
			fills:   transposeFill,
			outputs: []string{"b"},
		},
		{
			name:    "transpose/two-phase",
			source:  hpf.TransposeSource,
			copts:   compiler.Options{N: 64, Procs: 4, MemElems: 16 * 64, Force: "two-phase"},
			fills:   transposeFill,
			outputs: []string{"b"},
		},
		{
			name:    "ewise/multi-statement",
			source:  hpf.EwiseSource,
			copts:   compiler.Options{N: 64, Procs: 4, MemElems: 64 * 8},
			fills:   map[string]func(int, int) float64{"x": fillX, "y": fillY},
			outputs: []string{"w", "z"},
		},
	}
}

// runOpts builds one run's Options, creating fresh per-run state (FS,
// tracer) so successive runs cannot share mutable state.
func (sc *bcEquivScenario) runOpts(procs int) Options {
	opts := sc.options
	opts.Fill = sc.fills
	opts.Trace = trace.NewTracer(procs)
	if sc.name == "gaxpy/chaos-transient" {
		opts.FS = transientChaosFS(1)
		opts.Resilience = retryResilience()
	}
	if opts.Parity {
		opts.Resilience = parityResilience()
	}
	return opts
}

// TestBytecodeCancelledAtOpBoundary pins the cancellation contract of
// the dispatch loop: a cancelled context stops the run at an instruction
// boundary and surfaces context.Canceled.
func TestBytecodeCancelledAtOpBoundary(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, gaxpyScenarioOpts("row-slab"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunCtx(newCancelAfter(5), res.Program, sim.Delta(4), Options{})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled bytecode run must surface context.Canceled, got: %v", err)
	}
	if !strings.Contains(err.Error(), "cancelled at op boundary") {
		t.Fatalf("cancellation must happen at an op boundary, got: %v", err)
	}
}

// TestBytecodeRoundTripStillRuns executes a decoded stream — the persisted
// form ooc-compile writes — and checks it behaves like the stream Run
// lowers itself.
func TestBytecodeRoundTripStillRuns(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, gaxpyScenarioOpts("row-slab"))
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bytecode.Compile(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := bytecode.Decode(bytecode.Encode(bc))
	if err != nil {
		t.Fatal(err)
	}
	out, err := run(context.Background(), res.Program, decoded, sim.Delta(4), Options{Fill: sweepFills()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(res.Program, sim.Delta(4), Options{Fill: sweepFills()})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := out.Stats.ElapsedSeconds(), direct.Stats.ElapsedSeconds(); a != b {
		t.Fatalf("decoded stream simulated %.12f, direct %.12f", a, b)
	}
	am, err := out.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	bm, err := direct.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(am, bm) {
		t.Fatal("decoded stream computed a different result")
	}
}

// plan.Fingerprint invariance under lowering: the bytecode program
// carries the plan's fingerprint verbatim, so a persisted stream can be
// matched to the plan it was lowered from.
func TestBytecodeCarriesPlanFingerprint(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, gaxpyScenarioOpts("row-slab"))
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bytecode.Compile(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	if want := plan.Fingerprint(res.Program, nil); bc.Fingerprint != want {
		t.Fatalf("bytecode fingerprint %s, plan fingerprint %s", bc.Fingerprint, want)
	}
}

// TestLoweringFailureStartsNoRank: a plan the bytecode compiler rejects
// fails Run, Resume and RunResilient before any rank starts, leaving no
// local array file on the backing store. Each bad statement follows the
// whole valid program, so a rank started before lowering would have
// written its arrays.
func TestLoweringFailureStartsNoRank(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		stmt       plan.Node
	}{
		{"undefined buffer", "never-read", &plan.WriteBuf{Array: "c", Buf: "never-read"}},
		{"axpy outside its column loop", "AXPY_COLS", &plan.Axpy{Vec: "temp", A: "icla_a", ACol: "i",
			B: "icla_b", BRowPlus: "i", BCol: "m"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := compiler.CompileSource(hpf.GaxpySource, gaxpyScenarioOpts("row-slab"))
			if err != nil {
				t.Fatal(err)
			}
			bad := *res.Program
			bad.Body = append(slices.Clone(res.Program.Body), tc.stmt)
			fs := iosim.NewMemFS()
			out, err := Run(&bad, sim.Delta(4), Options{FS: fs, Fill: sweepFills()})
			if err == nil || !strings.Contains(err.Error(), "bytecode") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("unlowerable plan must fail with a lowering error naming %q, got result %v, err %v", tc.want, out, err)
			}
			ckpt := &CheckpointSpec{Every: 1}
			if _, err := Resume(&bad, sim.Delta(4), Options{FS: fs, Checkpoint: ckpt}); err == nil || errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("Resume must reject the unlowerable plan before reading manifests, got %v", err)
			}
			if _, err := RunResilient(&bad, sim.Delta(4), Options{FS: fs, Checkpoint: ckpt, Parity: true}, 1); err == nil {
				t.Fatal("RunResilient accepted an unlowerable plan")
			}
			if names := fs.Names(); len(names) != 0 {
				t.Fatalf("failed lowering left files behind: %v", names)
			}
		})
	}
}
