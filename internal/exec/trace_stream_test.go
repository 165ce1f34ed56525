package exec

import (
	"bytes"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// streamScenarios are the acceptance matrix for live streaming: the
// NDJSON spans written as the run progresses must be the exact span
// sequence of the buffered Chrome export, and both must replay to the
// accounted statistics to the digit.
func streamScenarios() []reconcileScenario {
	return []reconcileScenario{
		{
			name:   "gaxpy/row-slab",
			source: hpf.GaxpySource,
			copts:  gaxpyScenarioOpts("row-slab"),
			fills:  sweepFills(),
		},
		{
			name:   "transpose/two-phase",
			source: hpf.TransposeSource,
			copts:  compiler.Options{N: 64, Procs: 4, MemElems: 16 * 64, Force: "two-phase"},
			fills: map[string]func(int, int) float64{
				"a": func(gi, gj int) float64 { return float64(gi*64 + gj + 1) },
			},
		},
		{
			name:   "stencil/shift-exchange",
			source: shiftSource,
			copts:  compiler.Options{N: 32, Procs: 4, MemElems: 32 * 4},
			fills:  map[string]func(int, int) float64{"x": shiftFillX},
		},
	}
}

func TestStreamedSpansReconcileWithBufferedExport(t *testing.T) {
	for _, sc := range streamScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			res, err := compiler.CompileSource(sc.source, sc.copts)
			if err != nil {
				t.Fatal(err)
			}
			mach := sim.Delta(res.Program.Procs)

			var stream bytes.Buffer
			opts := sc.options
			opts.Fill = sc.fills
			opts.Trace = trace.NewTracer(res.Program.Procs)
			opts.Trace.SetSink(trace.NewNDJSONSink(&stream), 0)

			out, err := Run(res.Program, mach, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := opts.Trace.CloseSink(); err != nil {
				t.Fatal(err)
			}
			if d := opts.Trace.Dropped(); d != 0 {
				t.Fatalf("tracer dropped %d spans; exactness is void", d)
			}

			streamed, sprocs, sdropped, err := trace.ParseNDJSON(&stream)
			if err != nil {
				t.Fatal(err)
			}
			if sprocs != res.Program.Procs || sdropped != 0 {
				t.Fatalf("stream parsed as procs=%d dropped=%d, want %d, 0", sprocs, sdropped, res.Program.Procs)
			}

			var chrome bytes.Buffer
			if err := opts.Trace.ExportChromeTrace(&chrome); err != nil {
				t.Fatal(err)
			}
			buffered, _, bdropped, err := trace.ParseChromeTraceInfo(chrome.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if bdropped != 0 {
				t.Fatalf("buffered export records %d drops, want 0", bdropped)
			}
			if len(streamed) != len(buffered) {
				t.Fatalf("stream carries %d spans, buffered export %d", len(streamed), len(buffered))
			}
			for i := range buffered {
				if streamed[i] != buffered[i] {
					t.Fatalf("span %d differs between stream and export:\nstream %+v\nexport %+v", i, streamed[i], buffered[i])
				}
			}

			// And both reconcile with the accounted statistics, exactly.
			if err := trace.Reconcile(streamed, out.Stats, out.PerArray); err != nil {
				t.Fatalf("streamed spans do not replay to the statistics:\n%v", err)
			}
		})
	}
}

// slowSink sleeps on every span — slower than any burst the run
// produces through a tiny queue, so drops are guaranteed.
type slowSink struct{ emitted int64 }

func (s *slowSink) Emit(rank int, sp Span) {
	time.Sleep(200 * time.Microsecond)
	s.emitted++
}
func (s *slowSink) Flush() error { return nil }
func (s *slowSink) Close() error { return nil }

// Span aliases trace.Span for the local sink implementations.
type Span = trace.Span

// TestSlowSinkDoesNotPerturbSimulation pins the decoupling between wall
// time and simulated time: a sink too slow to keep up drops spans (with
// exact accounting) but leaves the simulated clock, the statistics, and
// every counter bit-identical to the sink-less run.
func TestSlowSinkDoesNotPerturbSimulation(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, gaxpyScenarioOpts("row-slab"))
	if err != nil {
		t.Fatal(err)
	}
	mach := sim.Delta(res.Program.Procs)

	base, err := Run(res.Program, mach, Options{Fill: sweepFills()})
	if err != nil {
		t.Fatal(err)
	}

	sink := &slowSink{}
	tr := trace.NewTracer(res.Program.Procs)
	tr.SetSink(sink, 2)
	slow, err := Run(res.Program, mach, Options{Fill: sweepFills(), Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CloseSink(); err != nil {
		t.Fatal(err)
	}

	if got, want := slow.Stats.ElapsedSeconds(), base.Stats.ElapsedSeconds(); got != want {
		t.Fatalf("slow sink changed sim_s: %v != %v", got, want)
	}
	total := int64(len(tr.Spans()))
	if sink.emitted+tr.Dropped() != total {
		t.Fatalf("sink saw %d + dropped %d != %d spans emitted", sink.emitted, tr.Dropped(), total)
	}
	if tr.Dropped() == 0 {
		t.Fatal("expected the slow sink to drop spans through a queue of 2")
	}
}
