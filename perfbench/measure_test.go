package main

import (
	"sync"
	"testing"
	"time"
)

// fakeWorkload records which sequence numbers its clients ran.
type fakeWorkload struct {
	mu   sync.Mutex
	seqs map[int]int
	deck []Job
}

func (f *fakeWorkload) jobs() []Job                         { return f.deck }
func (f *fakeWorkload) clients() int                        { return 2 }
func (f *fakeWorkload) setUp() error                        { return nil }
func (f *fakeWorkload) counts() (map[string]float64, error) { return nil, nil }
func (f *fakeWorkload) beginPhase() error                   { return nil }
func (f *fakeWorkload) close()                              {}
func (f *fakeWorkload) endPhase([]outcome) (map[string]float64, error) {
	return map[string]float64{}, nil
}

func (f *fakeWorkload) do(seq int) outcome {
	f.mu.Lock()
	f.seqs[seq]++
	f.mu.Unlock()
	time.Sleep(time.Millisecond)
	return outcome{deck: seq % len(f.deck), latency: time.Millisecond, sim: float64(seq % len(f.deck))}
}

func TestRunPhaseTakesWholePasses(t *testing.T) {
	f := &fakeWorkload{seqs: map[int]int{}, deck: make([]Job, 7)}
	ph, err := runPhase(f, 20*time.Millisecond, 30, false)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ph.outs)
	if n < 30 || n%7 != 0 {
		t.Fatalf("%d jobs: want at least 30, in whole passes of 7", n)
	}
	for seq := 0; seq < n; seq++ {
		if f.seqs[seq] != 1 {
			t.Errorf("seq %d ran %d times", seq, f.seqs[seq])
		}
	}
	sims, err := deckSims(ph.outs, 7)
	if err != nil || len(sims) != 7 {
		t.Errorf("deckSims: %v, %v", sims, err)
	}
}

func TestDeckSimsRefusesDisagreeingRepeats(t *testing.T) {
	outs := []outcome{{deck: 0, sim: 1}, {deck: 1, sim: 2}, {deck: 0, sim: 1.5}}
	if _, err := deckSims(outs, 2); err == nil {
		t.Error("repeats of one deck job with different simulated times accepted")
	}
	if _, err := deckSims(outs[:1], 2); err == nil {
		t.Error("a deck job that never ran accepted")
	}
}
