// Command perfbench is the repository's benchmark. It drives the system
// from outside, through its public entry points, on one of three
// workloads whose jobs it draws from a seed, checks every job's output
// against a reference that does not come from the code under test, and
// prints every metric by name with its unit. BENCHMARK.json at the
// repository root declares the workloads and metrics; run it with
//
//	bash perfbench/run.sh --workload gaxpy-batch --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The line before it ("report ...")
// records the provenance (GOMAXPROCS, nproc, Go version, CPU model,
// commit or source-tree hash, workload, seed) and the sample count behind
// every percentile and median.
//
// # Runs
//
// With --trace 0 a run sets the system up seven times (setup_s is the
// median), then runs one timed closed-loop phase of at least --seconds
// and at least 100 jobs (so p90 has ten samples beyond it), in whole
// passes over the deck so that every run measures the same mix, and
// reports the end-to-end metrics. Output checks are timed apart and
// taken out of latency, throughput and CPU; a batch job's check ends
// with a garbage collection, so each job starts on a clean heap as
// successive ooc-run invocations would.
//
// With --trace 1 the same workload runs two half-length phases from a
// fresh set-up each, one plain and one under a CPU profile, then two
// count passes and a plan pass, and reports the per-layer metrics:
//
//   - spans the benchmark records around each public call (hpf.Parse,
//     compiler.Compile, exec.Run; for serve-mix the request encode, the
//     HTTP round trip and the response decode). Their sum must cover the
//     job latency to within spanTolerance, or the run fails;
//   - exact counts from trace.Stats, serve.Metrics and bufpool.Snapshot.
//     A count pass runs the deck (serve-mix: serveCountJobs jobs from one
//     client, so the order is fixed) on fresh state; the run fails unless
//     two passes give identical counts;
//   - the plan pass, which times parse, compile, bytecode lowering with
//     encoding, and decoding on each distinct plan of the deck;
//   - cpu_share.*: the profile's samples, outside output checks, charged
//     to the Go package of their innermost frame; the shares must sum
//     to 1, or the run fails.
//
// The benchmark never sets exec.Options.Bytecode: batch jobs run on the
// default engine, and serve-mix jobs on whatever the service picks.
//
// # Workloads
//
// gaxpy-batch is the paper's Figure-3 GAXPY compiled and run on real
// data, one caller, like successive ooc-run invocations. Its deck holds
// each of 27 strata once (P in {4, 8, 16} x node memory of 32, 64 or 128
// columns x three bands of n between 384 and 512); the seed draws n
// inside each band and the order. Slab sizes, mp reductions and iosim
// reads all vary with it. exec dispatch takes about half the CPU, so
// this is the workload for dispatch, slab-opcode and tree-walk changes;
// collio and dist do almost nothing here. Output: C against
// gaxpy.CExpected, the closed form.
//
// transpose-batch is the compiled two-phase transpose on real data, n
// in three bands between 1024 and 1536, P in {4, 8}, node memory of 16
// or 64 columns.
// Per-element index translation in dist and the collio shuffle take
// most of its CPU, while exec dispatch takes a few percent: a dispatch
// change must show no change here. Its I/O is write-heavy (thousands of
// small writes against a few hundred large reads), the mirror of
// gaxpy's read-heavy I/O, so a gain for one use of iosim that costs the
// other shows. Output: the exact transpose of the fill.
//
// serve-mix is an in-process ooc-serve at its default configuration,
// the journal on an in-memory file system (fsync time would measure
// the host disk, not the program), driven over loopback HTTP by two
// closed-loop clients (POST /jobs blocks until the reply). Its deck is
// 64 small jobs from four tenants, every one with an idempotency key:
// one cell of eight for each of GAXPY, transpose, ewise and shift at two
// sizes. In each cell two jobs carry fresh compile keys (plan-cache
// misses) beside repeats, one maintains parity, one takes chaos retries
// and, outside GAXPY, one asks for trace:true. Every served
// response must equal, statistic for statistic, a direct exec.Run of
// the same spec whose arrays passed their reference check (the service
// fills only GAXPY and transpose inputs, so ewise and shift run on
// zeros and their array check is the zero-input closed form).
//
// # Findings from sizing
//
// Journal compaction thrash. With a journal and idempotency keys, once
// 256 retained outcomes make the compaction snapshot larger than
// RotateBytes (1 MiB), journal.append compacts on every append
// (internal/serve/journal.go, append → compactLocked). Direct Submit
// went from about 3 ms/job for the first 200 jobs to about 47 ms/job
// after that. Each serve-mix run goes well past that point, so
// serve.journal_compactions_per_job shows the thrash (about 0.9 per
// job over a count pass) and encoding/json takes about 60% of the CPU.
// The fix belongs to a later change.
//
// gaxpy steadiness. gaxpy's per-job median moved between about 53 and
// 97 ms across runs minutes apart. Two causes were found. The first was
// the benchmark's: n was jittered independently per job and a phase
// could stop mid-deck, so seeds ran different mixes; the band offsets
// are now balanced and phases run whole passes. The second is the host:
// within one process, identical passes over the deck vary by about 8%
// in CPU time with a steady GC count and heap and no drift, across runs
// CPU per job spreads far less than wall latency (transpose: 4% against
// 16% over five seeds), and the VM's steal counter grows while a run
// executes. Wall time moves with the load on the shared vCPUs; long
// runs and medians are the remedy the benchmark can apply, and the
// bounds in BENCHMARK.json allow for the rest. cpu_ms_per_job is the
// steadier figure for claims.

// Parity disk loss is not deterministic. With parity on and a disk lost
// mid-run (lose_disk), the simulated seconds of GAXPY, ewise and shift
// runs differ from run to run of the same spec (40 of 54 probed specs),
// and a two-phase transpose fails outright because the shuffle's
// scratch files carry no parity. serve-mix therefore carries parity
// without disk loss until those are fixed.
//
// A traced GAXPY job returns a span per column operation, tens of
// thousands at n=128, and the journal keeps that trace in the job's
// retained outcome; serve-mix asks traces of the other kernels only.
package main
