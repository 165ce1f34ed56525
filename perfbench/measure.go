package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/trace"
)

const (
	// setupRounds is how often a run sets the system up; setup_s is the
	// median.
	setupRounds = 7
	// spanTolerance bounds the share of job latency that the spans
	// around the program's public calls may leave uncovered.
	spanTolerance = 0.02
	// maxPhase caps a timed phase that has not yet met its sample
	// minimum.
	maxPhase = 120 * time.Second
	// planReps is how often the traced run times each distinct plan's
	// parse, compile, lower, encode and decode.
	planReps = 5
)

// span is one call into the program, timed by the benchmark.
type span struct {
	name string
	d    time.Duration
}

// spans records consecutive calls of one job.
type spans []span

func (s *spans) add(name string, start time.Time) { *s = append(*s, span{name, time.Since(start)}) }

// outcome is one job as the benchmark saw it.
type outcome struct {
	deck    int
	latency time.Duration
	spans   spans
	sim     float64
	err     error
	// checkWall, checkCPU and checkAllocs are what checking the output
	// inline cost; they are taken out of the timed phase.
	checkWall, checkCPU time.Duration
	checkAllocs         allocs
	// respBytes is the size of a served response.
	respBytes int
	// check, when set, finishes checking the outcome after its phase.
	check func() error
}

// workload is one traffic mix against the program.
type workload interface {
	jobs() []Job
	clients() int
	// setUp makes the state a timed phase runs against, replacing any
	// earlier state. A run calls it setupRounds times before its first
	// phase and once more before a traced phase.
	setUp() error
	// do runs the job with sequence number seq (deck entry seq mod the
	// deck length).
	do(seq int) outcome
	// counts runs one count pass and returns exact per-job counts.
	counts() (map[string]float64, error)
	// beginPhase and endPhase bracket a timed phase; endPhase returns
	// the workload's own per-layer figures for it.
	beginPhase() error
	endPhase(outs []outcome) (map[string]float64, error)
	close()
}

// phase is one timed closed-loop phase.
type phase struct {
	outs    []outcome
	wall    time.Duration // outside inline output checks
	cpu     time.Duration // process user+sys, outside inline output checks
	allocs  allocs
	pool    bufpool.Stats
	profile []byte
	layers  map[string]float64
}

// allocs are the runtime's cumulative allocation counters.
type allocs struct{ objects, bytes, gcs uint64 }

func readAllocs() allocs {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return allocs{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (a allocs) minus(b allocs) allocs {
	return allocs{a.objects - b.objects, a.bytes - b.bytes, a.gcs - b.gcs}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runPhase drives the workload's clients in a closed loop for at least
// dur and at least minJobs jobs, in whole passes over the deck, then
// checks every outcome.
func runPhase(w workload, dur time.Duration, minJobs int, profiled bool) (*phase, error) {
	if err := w.beginPhase(); err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	alloc0 := readAllocs()
	pool0 := bufpool.Snapshot()
	cpu0 := cpuTime()
	start := time.Now()

	// Jobs are taken in whole passes over the deck, so every phase runs
	// the same mix whatever its length.
	deckLen := int64(len(w.jobs()))
	var next atomic.Int64
	take := func() (int64, bool) {
		for {
			seq := next.Load()
			el := time.Since(start)
			if el >= maxPhase || (el >= dur && seq >= int64(minJobs) && seq%deckLen == 0) {
				return 0, false
			}
			if next.CompareAndSwap(seq, seq+1) {
				return seq, true
			}
		}
	}
	per := make([][]outcome, w.clients())
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq, ok := take(); ok; seq, ok = take() {
				per[c] = append(per[c], w.do(int(seq)))
			}
		}(c)
	}
	wg.Wait()
	ph := &phase{wall: time.Since(start), cpu: cpuTime() - cpu0, allocs: readAllocs().minus(alloc0)}
	pool1 := bufpool.Snapshot()
	if profiled {
		pprof.StopCPUProfile()
		ph.profile = prof.Bytes()
	}
	ph.pool = bufpool.Stats{Gets: pool1.Gets - pool0.Gets, Hits: pool1.Hits - pool0.Hits}
	for _, outs := range per {
		ph.outs = append(ph.outs, outs...)
	}
	sort.Slice(ph.outs, func(i, j int) bool { return ph.outs[i].deck < ph.outs[j].deck })
	for i := range ph.outs {
		o := &ph.outs[i]
		ph.wall -= o.checkWall
		ph.cpu -= o.checkCPU
		ph.allocs = ph.allocs.minus(o.checkAllocs)
		if o.err == nil && o.check != nil {
			o.err = o.check()
		}
	}
	layers, err := w.endPhase(ph.outs)
	if err != nil {
		return nil, err
	}
	ph.layers = layers
	return ph, nil
}

// failures counts the phase's failed jobs and keeps the first error.
func (ph *phase) failures() (int, error) {
	n := 0
	var first error
	for _, o := range ph.outs {
		if o.err != nil {
			n++
			if first == nil {
				first = o.err
			}
		}
	}
	return n, first
}

// latenciesMS lists the latencies of the jobs that succeeded; failures
// count in verified_ratio and in the result's failed count instead.
func (ph *phase) latenciesMS() []float64 {
	var out []float64
	for _, o := range ph.outs {
		if o.err == nil {
			out = append(out, o.latency.Seconds()*1e3)
		}
	}
	return out
}

// deckSims returns each deck entry's simulated seconds, requiring every
// entry to have run and every repeat of an entry to agree to the bit.
func deckSims(outs []outcome, deckLen int) ([]float64, error) {
	sims := make([]float64, deckLen)
	seen := make([]bool, deckLen)
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		if seen[o.deck] && sims[o.deck] != o.sim {
			return nil, fmt.Errorf("deck job %d: simulated %v s, earlier %v s: not deterministic", o.deck, o.sim, sims[o.deck])
		}
		sims[o.deck], seen[o.deck] = o.sim, true
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("deck job %d never completed", i)
		}
	}
	return sims, nil
}

// spanResidual is the share of total job latency the recorded spans do
// not cover.
func spanResidual(outs []outcome) float64 {
	var lat, covered float64
	for _, o := range outs {
		lat += o.latency.Seconds()
		for _, s := range o.spans {
			covered += s.d.Seconds()
		}
	}
	return math.Abs(lat-covered) / lat
}

// spanMeanMS is the mean duration of the named span per job that has it.
func spanMeanMS(outs []outcome, name string) float64 {
	var xs []float64
	for _, o := range outs {
		for _, s := range o.spans {
			if s.name == name {
				xs = append(xs, s.d.Seconds()*1e3)
			}
		}
	}
	return mean(xs)
}

// statCounts are the exact per-run counts in a statistics snapshot.
func statCounts(s trace.Snapshot) map[string]float64 {
	io, c := s.TotalIO, s.TotalComm
	return map[string]float64{
		"oocarray.slab_reads":        float64(io.SlabReads),
		"oocarray.slab_writes":       float64(io.SlabWrites),
		"iosim.read_requests":        float64(io.ReadRequests),
		"iosim.write_requests":       float64(io.WriteRequests),
		"iosim.bytes_read":           float64(io.BytesRead),
		"iosim.bytes_written":        float64(io.BytesWritten),
		"iosim.retries":              float64(io.Retries),
		"iosim.sim_io_s":             io.Seconds,
		"mp.messages":                float64(c.MessagesSent),
		"mp.bytes":                   float64(c.BytesSent),
		"mp.collectives":             float64(c.Collectives),
		"mp.sim_comm_s":              c.Seconds,
		"collio.shuffle_messages":    float64(c.ShuffleMessages),
		"collio.shuffle_bytes":       float64(c.ShuffleBytes),
		"parity.reads":               float64(io.ParityReads),
		"parity.writes":              float64(io.ParityWrites),
		"parity.reconstructed_bytes": float64(io.ReconstructedBytes),
	}
}

// costError is |estimate - simulated| / simulated for the compiler's
// chosen candidate: how far the paper's cost model sits from the run.
func costError(res *compiler.Result, sim float64) float64 {
	est := res.Candidates[res.Chosen].Seconds(machine(res.Program.Procs))
	return math.Abs(est-sim) / sim
}

// addAll adds every entry of src to dst.
func addAll(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// planPass times the parse → compile → lower → encode → decode chain on
// each distinct plan of the deck (median of planReps) and returns the
// means over plans, with the plans' node, candidate, instruction and
// encoded-byte counts.
func planPass(deck []Job) (map[string]float64, error) {
	type key struct {
		k       Kernel
		n, p, m int
		force   string
	}
	seen := map[key]bool{}
	sum := map[string]float64{}
	plans := 0
	for _, j := range deck {
		s := j.Spec
		k := key{s.Kernel, s.N, s.Procs, s.MemElems, s.Force}
		if seen[k] {
			continue
		}
		seen[k] = true
		times := map[string][]float64{}
		var res *compiler.Result
		var enc []byte
		var bc *bytecode.Program
		for r := 0; r < planReps; r++ {
			t := time.Now()
			prog, err := hpf.Parse(source(s.Kernel))
			if err != nil {
				return nil, err
			}
			times["hpf.parse_ms"] = append(times["hpf.parse_ms"], msSince(t))
			t = time.Now()
			if res, err = compiler.Compile(prog, compileOptions(s)); err != nil {
				return nil, err
			}
			times["compiler.compile_ms"] = append(times["compiler.compile_ms"], msSince(t))
			t = time.Now()
			if bc, err = bytecode.Compile(res.Program); err != nil {
				return nil, err
			}
			enc = bytecode.Encode(bc)
			times["bytecode.lower_ms"] = append(times["bytecode.lower_ms"], msSince(t))
			t = time.Now()
			if bc, err = bytecode.Decode(enc); err != nil {
				return nil, err
			}
			times["bytecode.decode_ms"] = append(times["bytecode.decode_ms"], msSince(t))
		}
		for name, xs := range times {
			sum[name] += median(xs)
		}
		sum["plan.nodes"] += float64(countNodes(res.Program.Body))
		sum["compiler.candidates"] += float64(len(res.Candidates))
		sum["bytecode.instrs"] += float64(len(bc.Code))
		sum["bytecode.encoded_bytes"] += float64(len(enc))
		plans++
	}
	for k := range sum {
		sum[k] /= float64(plans)
	}
	return sum, nil
}

func msSince(t time.Time) float64 { return time.Since(t).Seconds() * 1e3 }

func countNodes(body []plan.Node) int {
	n := 0
	for _, node := range body {
		n++
		if l, ok := node.(*plan.Loop); ok {
			n += countNodes(l.Body)
		}
	}
	return n
}
