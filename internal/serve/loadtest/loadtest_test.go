package loadtest_test

import (
	"net/http/httptest"
	"testing"

	"github.com/ooc-hpf/passion/internal/serve"
	"github.com/ooc-hpf/passion/internal/serve/loadtest"
)

// TestLoadRunCompletesAndGates drives a small concurrent load through a
// real HTTP round trip and checks the CI gate passes: every job
// completes and the plan cache carries the repeated mix.
func TestLoadRunCompletesAndGates(t *testing.T) {
	s, err := serve.Open(serve.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := loadtest.Run(ts.URL, loadtest.Config{Jobs: 100, Concurrency: 16, Tenants: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := loadtest.Gate(rep, 0.9); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 100 || rep.Errors != 0 {
		t.Errorf("completed=%d errors=%d", rep.Completed, rep.Errors)
	}
	if got := rep.Metrics.Tenants["tenant-0"]; got == nil || got.Submitted != 25 {
		t.Errorf("tenant-0 accounting: %+v, want 25 submitted", got)
	}
}

// TestGateFailsOnColdCache pins the gate's hit-ratio arm.
func TestGateFailsOnColdCache(t *testing.T) {
	rep := &loadtest.Report{Jobs: 10, Completed: 10, CacheHitRatio: 0.2}
	if err := loadtest.Gate(rep, 0.9); err == nil {
		t.Error("cold cache should fail the gate")
	}
	rep = &loadtest.Report{Jobs: 10, Completed: 9, Errors: 1, CacheHitRatio: 1}
	if err := loadtest.Gate(rep, 0.9); err == nil {
		t.Error("a lost job should fail the gate")
	}
}
