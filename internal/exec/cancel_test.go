package exec

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

// cancelAfter is a deterministic context: it reports Canceled after its
// Err has been consulted n times across all ranks, landing the
// cancellation mid-run at a reproducible op boundary without any timers.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func newCancelAfter(n int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func compileGaxpy(t *testing.T, n, procs, mem int) *compiler.Result {
	t.Helper()
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
		N: n, Procs: procs, MemElems: mem, Policy: compiler.PolicyWeighted,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCancelStopsAndReleasesBuffers proves the two cancellation
// contracts: a cancelled run surfaces context.Canceled (wrapped through
// the per-rank error join), and every arena buffer — named slabs,
// staging, prefetched reader slabs, stranded mailbox payloads — is back
// in the pool afterwards. Checked mode counts every Get against a Put
// and panics on double release, so the balance below is exact.
func TestCancelStopsAndReleasesBuffers(t *testing.T) {
	res := compileGaxpy(t, 64, 4, 1<<12)
	fills := map[string]func(int, int) float64{
		res.Analysis.A: gaxpy.FillA, res.Analysis.B: gaxpy.FillB,
	}
	opts := Options{
		Fill:    fills,
		Runtime: oocarray.Options{Prefetch: true, WriteBehind: true},
	}
	// Sweep the cancellation point from "before the first node" to deep
	// into the slab loops, with prefetch and write-behind on so the
	// overlapped-I/O buffers are in flight when the run stops.
	afters := []int64{0, 1, 7, 40, 200, 1000}
	// Every point must fall before the end of the run: an uncancelled run
	// of the same program consults Err once per op boundary per rank.
	probe := newCancelAfter(math.MaxInt64)
	out, err := RunCtx(probe, res.Program, sim.Delta(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	out.Close()
	calls := math.MaxInt64 - probe.left.Load()
	t.Logf("uncancelled run: %d Err calls", calls)
	if last := afters[len(afters)-1]; last >= calls {
		t.Fatalf("cancellation point %d is not below the %d Err calls of an uncancelled run", last, calls)
	}
	for _, after := range afters {
		bufpool.SetChecked(true)
		bufpool.ResetStats()
		_, err := RunCtx(newCancelAfter(after), res.Program, sim.Delta(4), opts)
		if err == nil {
			t.Fatalf("after=%d: cancelled run completed", after)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: error does not wrap context.Canceled: %v", after, err)
		}
		s := bufpool.Snapshot()
		bufpool.SetChecked(false)
		if s.Gets != s.Puts+s.Drops {
			t.Fatalf("after=%d: arena leak on cancel: %+v", after, s)
		}
	}
}

// TestCompletedRunReleasesBuffers pins the same balance on the success
// path: releaseBufs returns the interpreter's final slab bindings, so a
// full run leaves the arena balanced too.
func TestCompletedRunReleasesBuffers(t *testing.T) {
	res := compileGaxpy(t, 48, 4, 1<<12)
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	out, err := RunCtx(context.Background(), res.Program, sim.Delta(4), Options{
		Fill: map[string]func(int, int) float64{
			res.Analysis.A: gaxpy.FillA, res.Analysis.B: gaxpy.FillB,
		},
		Runtime: oocarray.Options{Prefetch: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
		t.Fatalf("arena leak on completed run: %+v", s)
	}
}

// TestDeadlineExpiredBeforeStart: an already-expired deadline stops every
// rank at its first op boundary and reports DeadlineExceeded.
func TestDeadlineExpiredBeforeStart(t *testing.T) {
	res := compileGaxpy(t, 32, 2, 1<<10)
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, err := RunCtx(ctx, res.Program, sim.Delta(2), Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestCancelledResilientRunDoesNotRecover: cancellation must end the
// recovery loop, not trigger a parity rebuild + respawn of the
// "failed" attempt.
func TestCancelledResilientRunDoesNotRecover(t *testing.T) {
	res := compileGaxpy(t, 48, 4, 1<<12)
	opts := Options{
		Parity:     true,
		Checkpoint: &CheckpointSpec{Every: 1},
	}
	rr, err := RunResilientCtx(newCancelAfter(100), res.Program, sim.Delta(4), opts, 2)
	if err == nil {
		rr.Close()
		t.Fatal("cancelled resilient run completed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
}
