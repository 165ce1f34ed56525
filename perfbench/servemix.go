package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/serve"
	"github.com/ooc-hpf/passion/internal/trace"
)

const (
	// serveClients is the closed loop's client count: one per core of
	// the 2-core host the benchmark was sized on, each waiting for its
	// reply before it sends again.
	serveClients = 2
	// serveCountJobs is the count pass's length. It must run well past
	// the journal's 256 retained outcomes, where compaction starts on
	// every append.
	serveCountJobs = 320
	// maxRetries bounds the resubmits of a job the server turned away
	// with 429.
	maxRetries = 5
)

// serveMix drives an in-process ooc-serve, at its default configuration
// with the journal on an in-memory file system, from loopback HTTP
// clients.
type serveMix struct {
	deck    []Job
	warm    []Job
	oracles map[Spec]*oracle
	env     *serveEnv
	before  map[string]float64 // histogram sums and counts at phase start
}

// oracle is a direct run of a spec whose output arrays passed their
// reference check: every served response of that spec must report
// exactly its statistics.
type oracle struct {
	sim       float64
	stats     []byte
	costError float64
}

func newServeMix(deck, warm []Job) (*serveMix, error) {
	m := &serveMix{deck: deck, warm: warm, oracles: map[Spec]*oracle{}}
	for _, jobs := range [][]Job{warm, deck} {
		for _, j := range jobs {
			if m.oracles[j.Spec] != nil {
				continue
			}
			o, err := directRun(j.Spec)
			if err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
			m.oracles[j.Spec] = o
		}
	}
	return m, nil
}

func directRun(s Spec) (*oracle, error) {
	prog, err := hpf.Parse(source(s.Kernel))
	if err != nil {
		return nil, err
	}
	res, err := compiler.Compile(prog, compileOptions(s))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s, err)
	}
	rf := runFlags(s)
	opts, _, err := rf.Build(nil, false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s, err)
	}
	opts.Fill = fills(s)
	out, err := exec.Run(res.Program, machine(s.Procs), opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s, err)
	}
	defer out.Close()
	if err := verify(s, out); err != nil {
		return nil, err
	}
	stats, err := json.Marshal(out.Stats.Snapshot())
	if err != nil {
		return nil, err
	}
	sim := out.Stats.ElapsedSeconds()
	return &oracle{sim: sim, stats: stats, costError: costError(res, sim)}, nil
}

// serveEnv is one server life: the service, its HTTP listener and a
// client. Keys and fresh compile keys count from zero in every life, so
// two lives fed the same jobs see byte-identical requests.
type serveEnv struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	keys   atomic.Int64
}

func startServer() (*serveEnv, error) {
	srv, err := serve.Open(serve.Config{Journal: &serve.JournalConfig{FS: iosim.NewMemFS()}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &serveEnv{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

func (e *serveEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Teardown errors change no result: every job has been answered
	// and checked by now.
	e.hs.Shutdown(ctx)
	<-e.served
	e.srv.Drain(ctx)
	e.client.CloseIdleConnections()
}

func (m *serveMix) jobs() []Job  { return m.deck }
func (m *serveMix) clients() int { return serveClients }

func (m *serveMix) close() {
	if m.env != nil {
		m.env.stop()
		m.env = nil
	}
}

// setUp opens a fresh server (journal open and replay) and runs the
// warm-up jobs through it.
func (m *serveMix) setUp() error {
	m.close()
	e, err := startServer()
	if err != nil {
		return err
	}
	m.env = e
	return m.warmUp(e)
}

// warmUp submits the warm-up jobs and checks them.
func (m *serveMix) warmUp(e *serveEnv) error {
	for _, j := range m.warm {
		o, _ := m.submit(e, j, 0)
		if o.err == nil {
			o.err = o.check()
		}
		if o.err != nil {
			return fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return nil
}

func (m *serveMix) do(seq int) outcome {
	i := seq % len(m.deck)
	o, _ := m.submit(m.env, m.deck[i], i)
	return o
}

// submit posts job j (deck entry deck) under the life's next idempotency
// key and decodes the reply; the returned outcome checks the reply
// against its oracle.
func (m *serveMix) submit(e *serveEnv, j Job, deck int) (outcome, *serve.Response) {
	key := e.keys.Add(1)
	o := outcome{deck: deck}
	s := j.Spec
	req := serve.Request{
		Tenant: j.Tenant, Source: source(s.Kernel),
		N: s.N, Procs: s.Procs, MemElems: s.MemElems, Force: s.Force,
		Chaos: s.Chaos, ChaosSeed: s.ChaosSeed, Parity: s.Parity,
		Trace: j.Trace, IdempotencyKey: fmt.Sprintf("job-key-%d", key),
	}
	if j.Fresh {
		req.Source += fmt.Sprintf("! fresh compile key %d\n", key)
	}
	start := time.Now()
	t := time.Now()
	body, err := json.Marshal(req)
	o.spans.add("encode", t)
	var raw []byte
	for attempt := 0; err == nil; attempt++ {
		var wait time.Duration
		t = time.Now()
		raw, wait, err = e.post(body)
		o.spans.add("post", t)
		if err == nil || wait == 0 || attempt == maxRetries {
			break
		}
		t = time.Now()
		time.Sleep(wait)
		o.spans.add("backoff", t)
		err = nil
	}
	resp := new(serve.Response)
	if err == nil {
		t = time.Now()
		err = json.Unmarshal(raw, resp)
		o.spans.add("decode", t)
	}
	o.latency = time.Since(start)
	o.respBytes = len(raw)
	if err != nil {
		o.err = fmt.Errorf("%s: %w", s, err)
		return o, nil
	}
	o.sim = resp.SimSeconds
	o.check = func() error { return m.checkResponse(j, resp) }
	return o, resp
}

// post sends one job and reads the reply. A 429 comes back as an error
// with the server's suggested wait.
func (e *serveEnv) post(body []byte) ([]byte, time.Duration, error) {
	r, err := e.client.Post(e.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, 0, err
	}
	if r.StatusCode == http.StatusOK {
		return raw, 0, nil
	}
	var wait time.Duration
	if r.StatusCode == http.StatusTooManyRequests {
		var rej struct {
			RetryAfterMS int64 `json:"retry_after_ms"`
		}
		json.Unmarshal(raw, &rej) // a reply without the field waits the minimum
		wait = max(time.Duration(rej.RetryAfterMS)*time.Millisecond, time.Millisecond)
	}
	return nil, wait, fmt.Errorf("HTTP %d: %s", r.StatusCode, bytes.TrimSpace(raw))
}

func (m *serveMix) checkResponse(j Job, resp *serve.Response) error {
	want := m.oracles[j.Spec]
	stats, err := json.Marshal(resp.Stats)
	switch {
	case err != nil:
		return err
	case resp.Deduplicated:
		return fmt.Errorf("%s: a fresh key was answered as a duplicate", j.Spec)
	case resp.SimSeconds != want.sim:
		return fmt.Errorf("%s: served %v simulated s, direct run %v", j.Spec, resp.SimSeconds, want.sim)
	case !bytes.Equal(stats, want.stats):
		return fmt.Errorf("%s: served statistics differ from the direct run", j.Spec)
	}
	if j.Trace {
		spans, _, _, err := trace.ParseChromeTraceInfo(resp.Trace)
		if err != nil {
			return fmt.Errorf("%s: %w", j.Spec, err)
		}
		if len(spans) == 0 {
			return fmt.Errorf("%s: traced job returned no spans", j.Spec)
		}
	}
	return nil
}

func (m *serveMix) beginPhase() error {
	h, err := m.env.histograms()
	m.before = h
	return err
}

// endPhase reads the server's latency histograms over the phase and
// splits the client's latency into server time and transport.
func (m *serveMix) endPhase(outs []outcome) (map[string]float64, error) {
	after, err := m.env.histograms()
	if err != nil {
		return nil, err
	}
	meanMS := func(name string) float64 {
		return 1e3 * ratio(after[name+"_sum"]-m.before[name+"_sum"], after[name+"_count"]-m.before[name+"_count"])
	}
	var lat, size []float64
	for _, o := range outs {
		lat = append(lat, o.latency.Seconds()*1e3)
		size = append(size, float64(o.respBytes))
	}
	server := meanMS("passion_serve_job_latency_seconds")
	return map[string]float64{
		"serve.queue_wait_ms":     meanMS("passion_serve_queue_wait_seconds"),
		"serve.compile_ms":        meanMS("passion_serve_compile_seconds"),
		"serve.server_latency_ms": server,
		"serve.transport_ms":      mean(lat) - server,
		"serve.response_bytes":    mean(size),
	}, nil
}

// histograms scrapes /metrics in the Prometheus format and returns the
// _sum and _count series of every histogram.
func (e *serveEnv) histograms() (map[string]float64, error) {
	r, err := e.client.Get(e.url + "/metrics?format=prometheus")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !(strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count")) {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", sc.Text(), err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New("metrics: no histograms")
	}
	return out, nil
}

// counts runs a count pass on a server life of its own: the warm-up,
// then serveCountJobs deck jobs from a single client, so the order of
// jobs — and with it every cache, journal and trace count — is fixed.
func (m *serveMix) counts() (map[string]float64, error) {
	e, err := startServer()
	if err != nil {
		return nil, err
	}
	defer e.stop()
	if err := m.warmUp(e); err != nil {
		return nil, err
	}
	sum := map[string]float64{}
	var spans, traced, dropped float64
	for seq := 0; seq < serveCountJobs; seq++ {
		j := m.deck[seq%len(m.deck)]
		o, resp := m.submit(e, j, seq%len(m.deck))
		if o.err == nil {
			o.err = o.check()
		}
		if o.err != nil {
			return nil, o.err
		}
		addAll(sum, statCounts(resp.Stats))
		sum["compiler.cost_error"] += m.oracles[j.Spec].costError
		if j.Trace {
			sp, _, d, err := trace.ParseChromeTraceInfo(resp.Trace)
			if err != nil {
				return nil, err
			}
			spans += float64(len(sp))
			dropped += float64(d)
			traced++
		}
	}
	for k := range sum {
		sum[k] /= serveCountJobs
	}
	met := e.srv.MetricsSnapshot()
	jobs := float64(met.Submitted)
	sum["trace.spans_per_job"] = ratio(spans, traced)
	sum["trace.dropped"] = ratio(dropped, traced)
	sum["serve.cache_hit_ratio"] = met.Cache.HitRatio
	sum["serve.rejected"] = float64(met.RejectedBusy+met.RejectedOversize+met.RejectedDraining) / jobs
	sum["serve.journal_records_per_job"] = float64(met.Journal.RecordsAppended) / jobs
	sum["serve.journal_compactions_per_job"] = float64(met.Journal.Compactions) / jobs
	return sum, nil
}
