package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// endToEnd lists the metrics an untraced run reports, with their units.
var endToEnd = map[string]string{
	"setup_s":        "s",
	"jobs_per_s":     "1/s",
	"job_p50_ms":     "ms",
	"job_p90_ms":     "ms",
	"cpu_ms_per_job": "ms",
	"peak_rss_mb":    "MiB",
	"sim_s_per_job":  "s",
	"verified_ratio": "ratio",
}

// perLayer lists the metrics a traced run reports, with their units.
// Counts are per job unless the name says otherwise.
var perLayer = func() map[string]string {
	m := map[string]string{
		"hpf.parse_ms":                      "ms",
		"compiler.compile_ms":               "ms",
		"compiler.candidates":               "count",
		"compiler.cost_error":               "ratio",
		"plan.nodes":                        "count",
		"bytecode.instrs":                   "count",
		"bytecode.encoded_bytes":            "bytes",
		"bytecode.lower_ms":                 "ms",
		"bytecode.decode_ms":                "ms",
		"exec.run_ms":                       "ms",
		"oocarray.slab_reads":               "count",
		"oocarray.slab_writes":              "count",
		"mp.messages":                       "count",
		"mp.bytes":                          "bytes",
		"mp.collectives":                    "count",
		"mp.sim_comm_s":                     "s",
		"iosim.read_requests":               "count",
		"iosim.write_requests":              "count",
		"iosim.bytes_read":                  "bytes",
		"iosim.bytes_written":               "bytes",
		"iosim.retries":                     "count",
		"iosim.sim_io_s":                    "s",
		"collio.shuffle_messages":           "count",
		"collio.shuffle_bytes":              "bytes",
		"parity.reads":                      "count",
		"parity.writes":                     "count",
		"parity.reconstructed_bytes":        "bytes",
		"trace.spans_per_job":               "count",
		"trace.dropped":                     "count",
		"serve.queue_wait_ms":               "ms",
		"serve.compile_ms":                  "ms",
		"serve.server_latency_ms":           "ms",
		"serve.transport_ms":                "ms",
		"serve.response_bytes":              "bytes",
		"serve.cache_hit_ratio":             "ratio",
		"serve.rejected":                    "count",
		"serve.journal_records_per_job":     "count",
		"serve.journal_compactions_per_job": "count",
		"bufpool.hit_ratio":                 "ratio",
		"runtime.allocs_per_job":            "count",
		"runtime.alloc_bytes_per_job":       "bytes",
		"runtime.gc_cycles_per_job":         "count",
		"trace_overhead":                    "ratio",
		"check.span_residual":               "ratio",
		"check.cpu_samples":                 "count",
	}
	for _, b := range cpuBuckets {
		m["cpu_share."+b] = "ratio"
	}
	return m
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run prints before its result.
type report struct {
	Provenance Provenance `json:"provenance"`
	// Samples is the sample count behind each percentile and median.
	Samples  map[string]int `json:"samples"`
	SetupS   []float64      `json:"setup_s_rounds"`
	Problems []string       `json:"problems,omitempty"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "gaxpy-batch, transpose-batch or serve-mix")
	seed := fs.Int64("seed", 1, "seed the workload's jobs are drawn from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	rep := report{Provenance: provenance(*name, *seed, *traceFlag == 1), Samples: map[string]int{}}
	res, err := bench(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, &rep)
	for _, p := range rep.Problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err == nil {
		fmt.Fprintf(stdout, "report %s\n", line)
		line, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// bench sets the workload up, measures it and assembles the result.
func bench(name string, seed int64, dur time.Duration, traced bool, rep *report) (*result, error) {
	deck, err := deckFor(name, seed)
	if err != nil {
		return nil, err
	}
	var w workload
	if name == "serve-mix" {
		sm, err := newServeMix(deck, warmUpJobs(name))
		if err != nil {
			return nil, err
		}
		w = sm
	} else {
		w = &batch{deck: deck, warmUp: warmUpJobs(name)}
	}
	defer w.close()
	for r := 0; r < setupRounds; r++ {
		t := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(t).Seconds())
	}
	var res *result
	if traced {
		res, err = measureLayers(w, dur, rep)
	} else {
		res, err = measureEndToEnd(w, dur, rep)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && len(rep.Problems) == 0
	return res, nil
}

func measureEndToEnd(w workload, dur time.Duration, rep *report) (*result, error) {
	ph, err := runPhase(w, dur, max(minSamplesFor(90), len(w.jobs())), false)
	if err != nil {
		return nil, err
	}
	failed, firstErr := ph.failures()
	if firstErr != nil {
		rep.Problems = append(rep.Problems, firstErr.Error())
	}
	lat := ph.latenciesMS()
	p90, err := tailPercentile(lat, 90)
	if err != nil {
		return nil, err
	}
	sims, err := deckSims(ph.outs, len(w.jobs()))
	if err != nil {
		rep.Problems = append(rep.Problems, err.Error())
	}
	n := len(ph.outs)
	rep.Samples["job_p50_ms"], rep.Samples["job_p90_ms"] = len(lat), len(lat)
	rep.Samples["setup_s"] = len(rep.SetupS)
	rep.Samples["sim_s_per_job"] = len(sims)
	vals := map[string]float64{
		"setup_s":        median(rep.SetupS),
		"jobs_per_s":     float64(n-failed) / ph.wall.Seconds(),
		"job_p50_ms":     percentile(lat, 50),
		"job_p90_ms":     p90,
		"cpu_ms_per_job": ph.cpu.Seconds() * 1e3 / float64(n),
		"peak_rss_mb":    peakRSSMiB(),
		"sim_s_per_job":  mean(sims),
		"verified_ratio": float64(n-failed) / float64(n),
	}
	return finish(vals, endToEnd, n, failed, rep)
}

func measureLayers(w workload, dur time.Duration, rep *report) (*result, error) {
	const minJobs = 10
	plain, err := runPhase(w, dur/2, minJobs, false)
	if err != nil {
		return nil, err
	}
	// The traced phase starts from a fresh set-up too, so trace_overhead
	// compares like with like (serve-mix slows as its journal fills).
	if err := w.setUp(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	traced, err := runPhase(w, dur/2, minJobs, true)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	attempted, failed := 0, 0
	for _, ph := range []*phase{plain, traced} {
		f, firstErr := ph.failures()
		if firstErr != nil {
			rep.Problems = append(rep.Problems, firstErr.Error())
		}
		attempted += len(ph.outs)
		failed += f
	}
	first, err := w.counts()
	if err != nil {
		return nil, fmt.Errorf("count pass: %w", err)
	}
	second, err := w.counts()
	if err != nil {
		return nil, fmt.Errorf("count pass: %w", err)
	}
	for k, v := range first {
		if second[k] != v {
			rep.Problems = append(rep.Problems, fmt.Sprintf("count %s differs between two passes of the same seed: %v then %v", k, v, second[k]))
		}
	}
	addAll(vals, first)
	plans, err := planPass(w.jobs())
	if err != nil {
		return nil, fmt.Errorf("plan pass: %w", err)
	}
	addAll(vals, plans)
	addAll(vals, traced.layers)

	shares, samples, err := profileShares(traced.profile)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for b, s := range shares {
		vals["cpu_share."+b] = s
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("cpu shares sum to %v, not 1", total))
	}
	vals["check.cpu_samples"] = float64(samples)
	resid := spanResidual(traced.outs)
	vals["check.span_residual"] = resid
	if resid > spanTolerance {
		rep.Problems = append(rep.Problems, fmt.Sprintf("spans leave %.2f%% of job latency uncovered, tolerance %.0f%%", resid*100, spanTolerance*100))
	}
	jobs := float64(len(traced.outs))
	vals["bufpool.hit_ratio"] = ratio(float64(traced.pool.Hits), float64(traced.pool.Gets))
	vals["runtime.allocs_per_job"] = float64(traced.allocs.objects) / jobs
	vals["runtime.alloc_bytes_per_job"] = float64(traced.allocs.bytes) / jobs
	vals["runtime.gc_cycles_per_job"] = float64(traced.allocs.gcs) / jobs
	if len(traced.latenciesMS()) == 0 || len(plain.latenciesMS()) == 0 {
		return nil, fmt.Errorf("a phase had no successful job")
	}
	vals["trace_overhead"] = percentile(traced.latenciesMS(), 50)/percentile(plain.latenciesMS(), 50) - 1
	rep.Samples["trace_overhead.untraced"] = len(plain.outs)
	rep.Samples["trace_overhead.traced"] = len(traced.outs)
	rep.Samples["cpu_share"] = samples
	return finish(vals, perLayer, attempted, failed, rep)
}

// finish keeps exactly the metrics in units, filling those the
// workload has no use for with 0.
func finish(vals map[string]float64, units map[string]string, attempted, failed int, rep *report) (*result, error) {
	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for name, unit := range units {
		v := vals[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	for name := range vals {
		if _, ok := units[name]; !ok {
			return nil, errors.New("metric " + name + " is not declared")
		}
	}
	return res, nil
}
