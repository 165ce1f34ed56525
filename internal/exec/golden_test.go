package exec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// updateGolden rewrites the fixtures from the current executor. The
// committed fixtures were frozen from the plan-tree interpreter that
// preceded the bytecode engine; rewriting them is a deliberate spec
// change, never a way to make a failing comparison pass.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json and the frozen checkpoint from the current executor")

const (
	goldenPath    = "testdata/golden.json"
	frozenCkptDir = "testdata/ckpt-gaxpy-n64-p4"
)

// goldenRecord is the observable outcome of one run, reduced to values
// that compare exactly: simulated seconds as float bits, hashes of the
// per-rank statistics and of the span stream, output array hashes, the
// span reconciliation verdict and the checkpoint manifests verbatim.
type goldenRecord struct {
	SimS      float64           `json:"sim_s"`
	SimBits   string            `json:"sim_s_bits"`
	StatsSHA  string            `json:"stats_sha256"`
	Spans     int               `json:"spans,omitempty"`
	SpansSHA  string            `json:"spans_sha256,omitempty"`
	Outputs   map[string]string `json:"outputs,omitempty"`
	Reconcile string            `json:"reconcile,omitempty"`
	// Manifests holds every checkpoint manifest left on the file system
	// after the run (base64 of the framed bytes); KillManifests those of
	// the epoch the resume after a kill read.
	Manifests     map[string][]byte `json:"manifests,omitempty"`
	KillManifests map[string][]byte `json:"kill_manifests,omitempty"`
}

// goldenFile is testdata/golden.json.
type goldenFile struct {
	Note      string                  `json:"note"`
	Scenarios map[string]goldenRecord `json:"scenarios"`
	// FrozenCheckpoint describes testdata/ckpt-gaxpy-n64-p4: the
	// uninterrupted run the resumed one must reproduce.
	FrozenCheckpoint goldenRecord `json:"frozen_checkpoint"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// recordRun reduces a finished run to its golden record. tr may be nil
// (no span fields); fs is scanned for checkpoint manifests.
func recordRun(t *testing.T, out *Result, tr *trace.Tracer, fs iosim.FS, outputs []string) goldenRecord {
	t.Helper()
	sim := out.Stats.ElapsedSeconds()
	rec := goldenRecord{SimS: sim, SimBits: fmt.Sprintf("%016x", math.Float64bits(sim))}
	stats, err := json.Marshal(struct {
		Stats    trace.Snapshot              `json:"stats"`
		PerArray []map[string]*trace.IOStats `json:"per_array"`
	}{out.Stats.Snapshot(), out.PerArray})
	if err != nil {
		t.Fatal(err)
	}
	rec.StatsSHA = sha(stats)
	if tr != nil {
		var nd bytes.Buffer
		spans := tr.Spans()
		for _, s := range spans {
			line, err := trace.MarshalSpan(s)
			if err != nil {
				t.Fatal(err)
			}
			nd.Write(line)
			nd.WriteByte('\n')
		}
		rec.Spans, rec.SpansSHA = len(spans), sha(nd.Bytes())
		rec.Reconcile = "ok"
		if err := trace.Reconcile(spans, out.Stats, out.PerArray); err != nil {
			rec.Reconcile = err.Error()
		}
	}
	for _, name := range outputs {
		m, err := out.ReadArray(name)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Outputs == nil {
			rec.Outputs = make(map[string]string)
		}
		rec.Outputs[name] = matrixSHA(m)
	}
	rec.Manifests = manifestsOf(t, fs)
	return rec
}

func matrixSHA(m *matrix.Matrix) string {
	buf := make([]byte, 16+8*len(m.Data))
	binary.LittleEndian.PutUint64(buf, uint64(m.Rows))
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.Cols))
	for i, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[16+8*i:], math.Float64bits(v))
	}
	return sha(buf)
}

// manifestsOf reads every checkpoint manifest on fs, or nil.
func manifestsOf(t *testing.T, fs iosim.FS) map[string][]byte {
	t.Helper()
	lister, ok := fs.(interface{ Names() []string })
	if !ok {
		return nil
	}
	var out map[string][]byte
	for _, name := range lister.Names() {
		if !strings.HasSuffix(name, ".manifest") {
			continue
		}
		if out == nil {
			out = make(map[string][]byte)
		}
		out[name] = readFSFile(t, fs, name)
	}
	return out
}

func readFSFile(t *testing.T, fs iosim.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(io.NewSectionReader(f, 0, math.MaxInt64))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runGoldenScenario executes one scenario and records its outcome.
func runGoldenScenario(t *testing.T, sc bcEquivScenario) goldenRecord {
	t.Helper()
	res, err := compiler.CompileSource(sc.source, sc.copts)
	if err != nil {
		t.Fatal(err)
	}
	mach := sim.Delta(res.Program.Procs)
	if sc.resume != "" {
		return goldenKillResume(t, res, mach, sc)
	}
	opts := sc.runOpts(res.Program.Procs)
	if opts.FS == nil {
		opts.FS = iosim.NewMemFS()
	}
	out, err := Run(res.Program, mach, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return recordRun(t, out, opts.Trace, opts.FS, sc.outputs)
}

// goldenKillResume kills a checkpointed run with a file system that
// fails after k operations — the largest k at or below two thirds of
// the fault-free operation count that leaves a resumable checkpoint —
// and resumes it. The record carries the manifests the resume read.
func goldenKillResume(t *testing.T, res *compiler.Result, mach sim.Config, sc bcEquivScenario) goldenRecord {
	t.Helper()
	probe := iosim.NewFaultFS(iosim.NewMemFS(), 1<<30, nil)
	probeOpts := sc.runOpts(res.Program.Procs)
	probeOpts.Trace = nil
	probeOpts.FS = probe
	if _, err := Run(res.Program, mach, probeOpts); err != nil {
		t.Fatal(err)
	}
	total := 1<<30 - probe.Remaining()
	for k := total * 2 / 3; k >= 1; k-- {
		mem := iosim.NewMemFS()
		killOpts := sc.runOpts(res.Program.Procs)
		killOpts.Trace = nil
		killOpts.FS = iosim.NewFaultFS(mem, k, nil)
		if _, err := Run(res.Program, mach, killOpts); err == nil {
			continue // budget k sufficed; kill earlier
		}
		killed := resumedManifests(t, mem, killOpts.Checkpoint, res.Program.Procs)
		resumeOpts := sc.runOpts(res.Program.Procs)
		resumeOpts.FS = mem
		out, err := Resume(res.Program, mach, resumeOpts)
		if err != nil {
			continue // killed mid-commit or before the first checkpoint
		}
		rec := recordRun(t, out, resumeOpts.Trace, mem, sc.outputs)
		rec.KillManifests = killed
		return rec
	}
	t.Fatal("no kill point produced a resumable checkpoint")
	return goldenRecord{}
}

// resumedManifests returns the manifest files of the epoch a resume
// from fs would read. Newer manifests a killed run left on some ranks
// depend on how far each rank got before the kill, which the goroutine
// schedule decides, so only the resumed epoch is part of the spec.
func resumedManifests(t *testing.T, fs iosim.FS, spec *CheckpointSpec, procs int) map[string][]byte {
	t.Helper()
	mans, err := loadResumeManifests(fs, spec, procs)
	if err != nil {
		return nil
	}
	out := make(map[string][]byte, procs)
	for rank, m := range mans {
		name := spec.manifestName(rank, m.Epoch%ckptSlots)
		out[name] = readFSFile(t, fs, name)
	}
	return out
}

func loadGolden(t *testing.T) *goldenFile {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	return &g
}

func writeGolden(t *testing.T, g *goldenFile) {
	t.Helper()
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// compareGolden reports every field of got that differs from want.
func compareGolden(t *testing.T, got, want goldenRecord) {
	t.Helper()
	if got.SimBits != want.SimBits {
		t.Errorf("sim_s differs: got %v (%s), frozen %v (%s)", got.SimS, got.SimBits, want.SimS, want.SimBits)
	}
	if got.StatsSHA != want.StatsSHA {
		t.Errorf("per-rank statistics differ: sha256 %s, frozen %s", got.StatsSHA, want.StatsSHA)
	}
	if got.Spans != want.Spans || got.SpansSHA != want.SpansSHA {
		t.Errorf("span stream differs: %d spans sha256 %s, frozen %d spans sha256 %s",
			got.Spans, got.SpansSHA, want.Spans, want.SpansSHA)
	}
	if got.Reconcile != want.Reconcile {
		t.Errorf("reconcile verdict %q, frozen %q", got.Reconcile, want.Reconcile)
	}
	compareMaps(t, "output array", got.Outputs, want.Outputs, func(a, b string) bool { return a == b })
	compareMaps(t, "checkpoint manifest", got.Manifests, want.Manifests, bytes.Equal)
	compareMaps(t, "killed-run manifest", got.KillManifests, want.KillManifests, bytes.Equal)
}

func compareMaps[V any](t *testing.T, what string, got, want map[string]V, eq func(a, b V) bool) {
	t.Helper()
	keys := make(map[string]bool)
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		g, gok := got[k]
		w, wok := want[k]
		switch {
		case !gok:
			t.Errorf("%s %s missing (frozen one exists)", what, k)
		case !wok:
			t.Errorf("%s %s not in the fixtures", what, k)
		case !eq(g, w):
			t.Errorf("%s %s differs from the frozen one", what, k)
		}
	}
}

// TestBytecodeMatchesTreeAcrossScenarios pins the executor to the
// outputs frozen from the plan-tree interpreter it replaced, across every
// kernel and fault mode of the old two-engine matrix: simulated seconds
// to the bit, per-rank statistics, the span stream and its
// reconciliation verdict, output arrays and checkpoint manifests byte
// for byte. The float operation order and the checkpoint cursors are
// part of that spec.
func TestBytecodeMatchesTreeAcrossScenarios(t *testing.T) {
	var g *goldenFile
	if *updateGolden {
		g = &goldenFile{
			Note:      "frozen executor outputs; see golden_test.go",
			Scenarios: make(map[string]goldenRecord),
		}
		if old, err := os.ReadFile(goldenPath); err == nil {
			var prev goldenFile
			if json.Unmarshal(old, &prev) == nil {
				g.FrozenCheckpoint = prev.FrozenCheckpoint
			}
		}
	} else {
		g = loadGolden(t)
	}
	for _, sc := range bcEquivScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			got := runGoldenScenario(t, sc)
			if *updateGolden {
				g.Scenarios[sc.name] = got
				return
			}
			want, ok := g.Scenarios[sc.name]
			if !ok {
				t.Fatalf("scenario %q has no fixture", sc.name)
			}
			compareGolden(t, got, want)
		})
	}
	if *updateGolden {
		writeGolden(t, g)
	}
}

// frozenCkptProgram is the program of the frozen checkpoint.
func frozenCkptProgram(t *testing.T) *compiler.Result {
	t.Helper()
	res, err := compiler.CompileSource(hpf.GaxpySource,
		compiler.Options{N: 64, Procs: 4, MemElems: 1200, Force: "row-slab"})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var frozenCkptSpec = &CheckpointSpec{Every: 2}

// TestResumeFrozenTreeCheckpoint resumes a checkpoint written by the
// plan-tree interpreter (a MemFS dump of a GAXPY run cancelled after a
// mid-run commit) and demands the uninterrupted run's statistics and
// result bit for bit: checkpoints stay resumable across executor
// versions.
func TestResumeFrozenTreeCheckpoint(t *testing.T) {
	res := frozenCkptProgram(t)
	mach := sim.Delta(res.Program.Procs)
	if *updateGolden {
		freezeCheckpoint(t, res, mach)
	}
	want := loadGolden(t).FrozenCheckpoint

	// The uninterrupted run reproduces the frozen record...
	ref, err := Run(res.Program, mach, Options{FS: iosim.NewMemFS(), Fill: sweepFills(), Checkpoint: frozenCkptSpec})
	if err != nil {
		t.Fatal(err)
	}
	refRec := recordRun(t, ref, nil, iosim.NewMemFS(), []string{"c"})
	compareGolden(t, refRec, want)

	// ...and so does the resumed frozen checkpoint.
	mem := iosim.NewMemFS()
	entries, err := os.ReadDir(frozenCkptDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(frozenCkptDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		writeFSFile(t, mem, e.Name(), data)
	}
	out, err := Resume(res.Program, mach, Options{FS: mem, Fill: sweepFills(), Checkpoint: frozenCkptSpec, RestoreStats: true})
	if err != nil {
		t.Fatal(err)
	}
	got := recordRun(t, out, nil, iosim.NewMemFS(), []string{"c"})
	compareGolden(t, got, want)
}

func writeFSFile(t *testing.T, fs iosim.FS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := f.WriteAt(data, 0); err != nil || n != len(data) {
		t.Fatalf("write %s: %d of %d bytes: %v", name, n, len(data), err)
	}
}

// freezeCheckpoint regenerates the frozen checkpoint: the uninterrupted
// run's record goes to golden.json, and a run cancelled right after its
// middle checkpoint commit leaves the file system dumped to
// frozenCkptDir.
func freezeCheckpoint(t *testing.T, res *compiler.Result, mach sim.Config) {
	t.Helper()
	epochs := 0
	ref, err := Run(res.Program, mach, Options{FS: iosim.NewMemFS(), Fill: sweepFills(), Checkpoint: frozenCkptSpec,
		CkptHook: func(int) { epochs++ }})
	if err != nil {
		t.Fatal(err)
	}
	mem := iosim.NewMemFS()
	ctx, cancel := context.WithCancel(context.Background())
	crashAt := epochs / 2
	if _, err := RunCtx(ctx, res.Program, mach, Options{FS: mem, Fill: sweepFills(), Checkpoint: frozenCkptSpec,
		CkptHook: func(epoch int) {
			if epoch == crashAt {
				cancel()
			}
		}}); err == nil {
		t.Fatal("cancelled run completed")
	}
	cancel()
	if err := os.RemoveAll(frozenCkptDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(frozenCkptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range mem.Names() {
		if err := os.WriteFile(filepath.Join(frozenCkptDir, name), readFSFile(t, mem, name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var g goldenFile
	if data, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(data, &g); err != nil {
			t.Fatal(err)
		}
	}
	g.FrozenCheckpoint = recordRun(t, ref, nil, iosim.NewMemFS(), []string{"c"})
	writeGolden(t, &g)
}
