package serve

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestPromHistObserve(t *testing.T) {
	h := newPromHist([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.observe(v)
	}
	cum, count, sum := h.snapshot()
	// le=1 catches 0.5 and 1 (le is inclusive), le=10 adds 5, le=100
	// adds 50, +Inf adds 500.
	want := []int64{2, 3, 4, 5}
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("bucket %d: cumulative %d, want %d", i, cum[i], want[i])
		}
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if sum != 556.5 {
		t.Errorf("sum = %v, want 556.5", sum)
	}
}

func TestWritePrometheusValidates(t *testing.T) {
	s := mustOpen(t, Config{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(context.Background(), Request{N: 32, Tenant: "acme"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), Request{Machine: "cray", Tenant: `we"ird\te
nant`}); err == nil {
		t.Fatal("bad-machine submit should fail")
	}

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if err := ValidatePrometheus([]byte(text)); err != nil {
		t.Fatalf("exposition does not validate:\n%v\n---\n%s", err, text)
	}
	for _, want := range []string{
		`passion_serve_jobs_total{outcome="completed"} 1`,
		`passion_serve_tenant_jobs_total{tenant="acme",outcome="completed"} 1`,
		`passion_serve_job_latency_seconds_count 1`,
		`passion_serve_queue_wait_seconds_bucket{le="+Inf"} 1`,
		`passion_serve_compile_seconds_count`,
		`passion_serve_job_footprint_bytes_count 1`,
		`tenant="we\"ird\\te\nnant"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestValidatePrometheusRejectsBadExpositions(t *testing.T) {
	cases := []struct{ name, text string }{
		{"no type", "foo 1\n"},
		{"bad name", "# TYPE 9foo counter\n9foo 1\n"},
		{"bad type", "# TYPE foo banana\nfoo 1\n"},
		{"duplicate type", "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n"},
		{"type after samples", "# TYPE foo counter\nfoo 1\n# HELP foo late\n"},
		{"bad value", "# TYPE foo counter\nfoo pear\n"},
		{"unquoted label", "# TYPE foo counter\nfoo{a=b} 1\n"},
		{"bad label name", "# TYPE foo counter\nfoo{9a=\"b\"} 1\n"},
		{"non-contiguous", "# TYPE foo counter\n# TYPE bar counter\nfoo 1\nbar 1\nfoo 2\n"},
		{"hist no inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"hist not cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"},
		{"hist count mismatch", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"},
		{"hist no sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n"},
	}
	for _, tc := range cases {
		if err := ValidatePrometheus([]byte(tc.text)); err == nil {
			t.Errorf("%s: validated but should not:\n%s", tc.name, tc.text)
		}
	}
	good := "# HELP foo A counter.\n# TYPE foo counter\nfoo{a=\"b\"} 1 1700000000000\n"
	if err := ValidatePrometheus([]byte(good)); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
}

// TestMetricsHeaders is the regression test for the handleMetrics
// header fix: both formats must advertise a charset and must forbid
// caching a point-in-time snapshot.
func TestMetricsHeaders(t *testing.T) {
	s := mustOpen(t, Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/json; charset=utf-8" {
		t.Errorf("JSON Content-Type = %q", got)
	}
	if got := resp.Header.Get("Cache-Control"); got != "no-store" {
		t.Errorf("JSON Cache-Control = %q, want no-store", got)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Prometheus Content-Type = %q", got)
	}
	if got := resp.Header.Get("Cache-Control"); got != "no-store" {
		t.Errorf("Prometheus Cache-Control = %q, want no-store", got)
	}
	if err := ValidatePrometheus(body); err != nil {
		t.Errorf("scraped exposition invalid: %v", err)
	}

	// ?format=prometheus forces the exposition without an Accept header.
	resp, err = http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := ValidatePrometheus(body); err != nil {
		t.Errorf("?format=prometheus exposition invalid: %v", err)
	}
}

func TestParsePromSample(t *testing.T) {
	name, labels, v, err := parsePromSample(`m{a="x,y",b="q\"z"} 2.5`)
	if err != nil {
		t.Fatal(err)
	}
	if name != "m" || labels["a"] != "x,y" || labels["b"] != `q"z` || v != 2.5 {
		t.Fatalf("parsed %q %v %v", name, labels, v)
	}
	if _, _, v, err = parsePromSample("m +Inf"); err != nil || !math.IsInf(v, 1) {
		t.Fatalf("+Inf value: %v %v", v, err)
	}
}
