package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/hpf"
)

// batch runs its deck as successive ooc-run invocations would: one
// caller, each job parsed, compiled and executed from scratch on the
// default engine.
type batch struct {
	deck, warmUp []Job
}

func (b *batch) jobs() []Job  { return b.deck }
func (b *batch) clients() int { return 1 }
func (b *batch) close()       {}

func (b *batch) beginPhase() error { return nil }

func (b *batch) endPhase(outs []outcome) (map[string]float64, error) {
	return map[string]float64{"exec.run_ms": spanMeanMS(outs, "exec.run")}, nil
}

// setUp runs the warm-up jobs.
func (b *batch) setUp() error {
	for _, j := range b.warmUp {
		if o := b.runJob(j.Spec, 0); o.err != nil {
			return fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return nil
}

// run parses, compiles and executes one spec, recording a span around
// each public call.
func run(s Spec, sp *spans) (*compiler.Result, *exec.Result, error) {
	t := time.Now()
	prog, err := hpf.Parse(source(s.Kernel))
	sp.add("hpf.parse", t)
	if err != nil {
		return nil, nil, err
	}
	t = time.Now()
	res, err := compiler.Compile(prog, compileOptions(s))
	sp.add("compiler.compile", t)
	if err != nil {
		return nil, nil, err
	}
	t = time.Now()
	out, err := exec.Run(res.Program, machine(s.Procs), exec.Options{Fill: fills(s)})
	sp.add("exec.run", t)
	return res, out, err
}

func (b *batch) do(seq int) outcome {
	i := seq % len(b.deck)
	return b.runJob(b.deck[i].Spec, i)
}

// runJob runs one job and checks its output.
func (b *batch) runJob(s Spec, deck int) outcome {
	o := outcome{deck: deck}
	start := time.Now()
	_, out, err := run(s, &o.spans)
	o.latency = time.Since(start)
	if err != nil {
		o.err = fmt.Errorf("%s: %w", s, err)
		return o
	}
	o.sim = out.Stats.ElapsedSeconds()
	c0, a0, w0 := cpuTime(), readAllocs(), time.Now()
	pprof.Do(context.Background(), pprof.Labels(checkLabel, "check"), func(context.Context) {
		o.err = verify(s, out)
		out.Close()
		// Successive ooc-run invocations each start on a fresh heap.
		// Collecting here, inside the untimed check, starts every job
		// alike and keeps one job's garbage out of the next one's time.
		runtime.GC()
	})
	o.checkWall, o.checkCPU, o.checkAllocs = time.Since(w0), cpuTime()-c0, readAllocs().minus(a0)
	return o
}

// counts runs every deck job once and returns the per-job means of its
// exact counts.
func (b *batch) counts() (map[string]float64, error) {
	sum := map[string]float64{}
	for _, j := range b.deck {
		var sp spans
		res, out, err := run(j.Spec, &sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.Spec, err)
		}
		sim := out.Stats.ElapsedSeconds()
		addAll(sum, statCounts(out.Stats.Snapshot()))
		sum["compiler.cost_error"] += costError(res, sim)
		out.Close()
	}
	for k := range sum {
		sum[k] /= float64(len(b.deck))
	}
	return sum, nil
}
