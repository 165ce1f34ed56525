package main

import (
	"fmt"
	"math/rand"
)

// Kernel names the mini-HPF program a job compiles.
type Kernel string

// The four program shapes the compiler recognizes.
const (
	Gaxpy     Kernel = "gaxpy"
	Transpose Kernel = "transpose"
	Ewise     Kernel = "ewise"
	Shift     Kernel = "shift"
)

// Spec is everything that determines a job's compiled plan and its
// statistics: two jobs with equal Specs produce bitwise-equal stats.
type Spec struct {
	Kernel   Kernel
	N        int
	Procs    int
	MemElems int
	// Force pins the compiler's strategy ("" lets the cost model pick).
	Force string
	// Parity protects the array files with rotated XOR parity.
	Parity bool
	// Chaos is the transient-fault probability per file operation,
	// seeded by ChaosSeed; the default retry policy absorbs it.
	Chaos     float64
	ChaosSeed int64
}

func (s Spec) String() string {
	out := fmt.Sprintf("%s n=%d p=%d mem=%d", s.Kernel, s.N, s.Procs, s.MemElems)
	if s.Force != "" {
		out += " force=" + s.Force
	}
	if s.Parity {
		out += " parity"
	}
	if s.Chaos > 0 {
		out += fmt.Sprintf(" chaos=%g/%d", s.Chaos, s.ChaosSeed)
	}
	return out
}

// Job is one entry of a workload's deck.
type Job struct {
	Spec Spec
	// Serve-only fields: the submitting tenant, whether the response
	// carries a trace, and whether the source text is made unique so the
	// plan cache misses (the compiled plan, and so the stats, are those
	// of Spec all the same).
	Tenant string
	Trace  bool
	Fresh  bool
}

// The batch decks are stratified: every deck holds each stratum the same
// number of times, and the seed draws only the order and n inside each
// stratum's band. Within a round, the strata that share P and memory
// take the band offsets -1, 0 and +1 in a seeded order, so every deck
// has the same mean n. Any two seeds so run the same mix of shapes at
// near-equal cost, while no two seeds run identical jobs. Successive
// rounds each hold every stratum once.

// gaxpyDeck draws Figure-3 GAXPY jobs: P in {4, 8, 16}, node memory of
// 32, 64 or 128 columns, and n in one of three bands between 384 and 512.
func gaxpyDeck(seed int64) []Job {
	return stratified(seed, Gaxpy, []int{4, 8, 16}, []int{32, 64, 128}, []int{400, 448, 496}, 16, 1, "")
}

// transposeDeck draws two-phase transpose jobs: P in {4, 8}, node memory
// of 16 or 64 columns, n in three narrow bands between 1024 and 1536. A
// transpose's time grows with n squared, and its p90 falls among the
// largest jobs, so wide bands would let the seed move the tail.
func transposeDeck(seed int64) []Job {
	return stratified(seed, Transpose, []int{4, 8}, []int{16, 64}, []int{1088, 1280, 1472}, 8, 2, "two-phase")
}

// stratified builds rounds shuffled copies of the strata procs x cols x
// bands, where cols is node memory in columns of n and a job's n is its
// band plus step times an offset in {-1, 0, +1}.
func stratified(seed int64, k Kernel, procs, cols, bands []int, step, rounds int, force string) []Job {
	rng := rand.New(rand.NewSource(seed))
	var deck []Job
	for r := 0; r < rounds; r++ {
		var round []Job
		for _, p := range procs {
			for _, c := range cols {
				offsets := rng.Perm(len(bands))
				for b, band := range bands {
					n := band + step*(offsets[b]-1)
					round = append(round, Job{Spec: Spec{Kernel: k, N: n, Procs: p, MemElems: c * n, Force: force}})
				}
			}
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		deck = append(deck, round...)
	}
	return deck
}

// warmUpJobs are the jobs each set-up runs: fixed, so set-up time does
// not depend on the seed. Batch workloads run one mid-sized job per
// processor count, serve-mix one fault-free job per kernel and size.
func warmUpJobs(workload string) []Job {
	var jobs []Job
	switch workload {
	case "gaxpy-batch":
		for _, p := range []int{4, 8, 16} {
			jobs = append(jobs, Job{Spec: Spec{Kernel: Gaxpy, N: 448, Procs: p, MemElems: 64 * 448}})
		}
	case "transpose-batch":
		for _, p := range []int{4, 8} {
			jobs = append(jobs, Job{Spec: Spec{Kernel: Transpose, N: 1280, Procs: p, MemElems: 16 * 1280, Force: "two-phase"}})
		}
	case "serve-mix":
		for _, k := range []Kernel{Gaxpy, Transpose, Ewise, Shift} {
			for _, n := range serveSizes[k] {
				jobs = append(jobs, Job{Spec: serveSpec(k, n), Tenant: "tenant-0"})
			}
		}
	}
	return jobs
}

// Serve-mix deck shape: a cell of serveCell jobs for each kernel and
// size, of which one injects chaos, one maintains parity, two carry a
// never-seen compile key and, except for GAXPY, one asks for a trace.
const (
	serveCell    = 8
	serveTenants = 4
)

// serveSizes are the problem sizes serve-mix draws from, per kernel.
var serveSizes = map[Kernel][]int{
	Gaxpy:     {96, 128},
	Transpose: {192, 256},
	Ewise:     {192, 256},
	Shift:     {192, 256},
}

// serveSpec is a fault-free serve-mix spec: P=4, node memory of 16
// columns.
func serveSpec(k Kernel, n int) Spec {
	s := Spec{Kernel: k, N: n, Procs: 4, MemElems: 16 * n}
	if k == Transpose {
		s.Force = "two-phase"
	}
	return s
}

// serveDeck draws the serve-mix jobs: small GAXPY, transpose, ewise and
// shift jobs at P=4 in two sizes each, every kernel and size one cell.
// The seed draws which jobs of a cell carry which share, the chaos
// seeds, the order and so the tenants; the mix is the same for every
// seed. A GAXPY trace holds a span per column operation, tens of
// thousands at these sizes, so traces are asked of the other kernels.
func serveDeck(seed int64) []Job {
	rng := rand.New(rand.NewSource(seed))
	var deck []Job
	for _, k := range []Kernel{Gaxpy, Transpose, Ewise, Shift} {
		for _, n := range serveSizes[k] {
			cell := make([]Job, serveCell)
			for i := range cell {
				cell[i].Spec = serveSpec(k, n)
			}
			perm := rng.Perm(serveCell)
			cell[perm[0]].Spec.Chaos, cell[perm[0]].Spec.ChaosSeed = 0.01, int64(1+rng.Intn(2))
			cell[perm[1]].Spec.Parity = true
			cell[perm[2]].Fresh, cell[perm[3]].Fresh = true, true
			if k != Gaxpy {
				cell[rng.Intn(serveCell)].Trace = true
			}
			deck = append(deck, cell...)
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	for i := range deck {
		deck[i].Tenant = fmt.Sprintf("tenant-%d", i%serveTenants)
	}
	return deck
}

// deckFor returns the named workload's deck.
func deckFor(workload string, seed int64) ([]Job, error) {
	switch workload {
	case "gaxpy-batch":
		return gaxpyDeck(seed), nil
	case "transpose-batch":
		return transposeDeck(seed), nil
	case "serve-mix":
		return serveDeck(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want gaxpy-batch, transpose-batch or serve-mix)", workload)
}
