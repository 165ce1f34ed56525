package iosim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

func newTestDisk(t *testing.T) (*Disk, *trace.IOStats) {
	t.Helper()
	stats := &trace.IOStats{}
	return NewDisk(NewMemFS(), sim.Delta(4), stats), stats
}

func TestLAFReadWriteRoundTrip(t *testing.T) {
	d, _ := newTestDisk(t)
	laf, err := d.CreateLAF("p0/a.laf", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer laf.Close()
	src := make([]float64, 100)
	for i := range src {
		src[i] = float64(i) * 1.5
	}
	if _, err := laf.WriteAll(src); err != nil {
		t.Fatal(err)
	}
	got, _, err := laf.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("element %d: got %g want %g", i, got[i], src[i])
		}
	}
}

func TestChunkedReadWrite(t *testing.T) {
	d, stats := newTestDisk(t)
	laf, err := d.CreateLAF("a", 64)
	if err != nil {
		t.Fatal(err)
	}
	// Write a strided pattern: elements 0-3, 16-19, 32-35.
	chunks := []Chunk{{0, 4}, {16, 4}, {32, 4}}
	src := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if _, err := laf.WriteChunks(chunks, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 12)
	if _, err := laf.ReadChunks(chunks, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("element %d: got %g want %g", i, dst[i], src[i])
		}
	}
	// Untouched elements stay zero.
	all, _, err := laf.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if all[4] != 0 || all[15] != 0 || all[63] != 0 {
		t.Fatalf("untouched elements modified: %v", all)
	}
	// Accounting: 1 slab write of 3 requests, 2 slab reads (chunked +
	// ReadAll).
	if stats.SlabWrites != 1 || stats.WriteRequests != 3 {
		t.Errorf("write stats: %+v", stats)
	}
	if stats.SlabReads != 2 || stats.ReadRequests != 3+1 {
		t.Errorf("read stats: %+v", stats)
	}
	// Model bytes use ElemSize=4: write moved 12 elements = 48 bytes.
	if stats.BytesWritten != 48 {
		t.Errorf("BytesWritten = %d, want 48", stats.BytesWritten)
	}
}

func TestSievedReadEquivalence(t *testing.T) {
	d, stats := newTestDisk(t)
	laf, err := d.CreateLAF("a", 128)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]float64, 128)
	rng := rand.New(rand.NewSource(7))
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	if _, err := laf.WriteAll(src); err != nil {
		t.Fatal(err)
	}
	chunks := []Chunk{{8, 4}, {40, 8}, {100, 2}}
	direct := make([]float64, 14)
	sieved := make([]float64, 14)
	if _, err := laf.ReadChunks(chunks, direct); err != nil {
		t.Fatal(err)
	}
	before := *stats
	if _, err := laf.ReadChunksSieved(chunks, sieved); err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if direct[i] != sieved[i] {
			t.Fatalf("sieving changed data at %d: %g vs %g", i, sieved[i], direct[i])
		}
	}
	// Sieving: exactly one request, but the whole span's bytes.
	if got := stats.ReadRequests - before.ReadRequests; got != 1 {
		t.Errorf("sieved read used %d requests, want 1", got)
	}
	span := Span(chunks)
	if got := stats.BytesRead - before.BytesRead; got != int64(span.Len)*4 {
		t.Errorf("sieved read moved %d bytes, want %d", got, span.Len*4)
	}
}

func TestSievedVsChunkedTiming(t *testing.T) {
	// With many small chunks, the request overhead dominates and
	// sieving must be faster despite moving more data.
	d, _ := newTestDisk(t)
	laf, err := d.CreateLAF("a", 10000)
	if err != nil {
		t.Fatal(err)
	}
	var chunks []Chunk
	for off := int64(0); off < 10000; off += 100 {
		chunks = append(chunks, Chunk{off, 10})
	}
	dst := make([]float64, TotalLen(chunks))
	tChunked, err := laf.ReadChunks(chunks, dst)
	if err != nil {
		t.Fatal(err)
	}
	tSieved, err := laf.ReadChunksSieved(chunks, dst)
	if err != nil {
		t.Fatal(err)
	}
	if tSieved >= tChunked {
		t.Errorf("sieving should win on many small chunks: %g vs %g", tSieved, tChunked)
	}
}

func TestTimingMatchesModel(t *testing.T) {
	d, _ := newTestDisk(t)
	cfg := sim.Delta(4)
	laf, err := d.CreateLAF("a", 1000)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 500)
	sec, err := laf.ReadChunks([]Chunk{{0, 250}, {500, 250}}, dst)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.IOTime(2, 500*int64(cfg.ElemSize))
	if math.Abs(sec-want) > 1e-12 {
		t.Errorf("duration %g, want %g", sec, want)
	}
}

func TestBoundsChecking(t *testing.T) {
	d, _ := newTestDisk(t)
	laf, err := d.CreateLAF("a", 10)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 20)
	if _, err := laf.ReadChunks([]Chunk{{5, 10}}, buf); err == nil {
		t.Error("read past EOF should fail")
	}
	if _, err := laf.ReadChunks([]Chunk{{-1, 2}}, buf); err == nil {
		t.Error("negative offset should fail")
	}
	if _, err := laf.ReadChunks([]Chunk{{0, 10}}, buf[:5]); err == nil {
		t.Error("short buffer should fail")
	}
	if _, err := laf.WriteChunks([]Chunk{{8, 5}}, buf); err == nil {
		t.Error("write past EOF should fail")
	}
	if _, err := laf.WriteAll(buf); err == nil {
		t.Error("WriteAll with wrong size should fail")
	}
	if _, err := d.CreateLAF("bad", -5); err == nil {
		t.Error("negative LAF size should fail")
	}
}

func TestOpenAndRemove(t *testing.T) {
	d, _ := newTestDisk(t)
	laf, err := d.CreateLAF("x", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := laf.WriteAll([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	laf.Close()
	re, err := d.OpenLAF("x", 4)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := re.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got[3] != 4 {
		t.Errorf("reopened file lost data: %v", got)
	}
	if err := d.RemoveLAF("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.OpenLAF("x", 4); err == nil {
		t.Error("open after remove should fail")
	}
	if err := d.RemoveLAF("x"); err == nil {
		t.Error("double remove should fail")
	}
}

func TestOSFSRoundTrip(t *testing.T) {
	fs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDisk(fs, sim.Delta(2), nil)
	laf, err := d.CreateLAF("p0/a.laf", 32)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]float64, 32)
	for i := range src {
		src[i] = -float64(i)
	}
	if _, err := laf.WriteAll(src); err != nil {
		t.Fatal(err)
	}
	if err := laf.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := d.OpenLAF("p0/a.laf", 32)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _, err := re.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("OSFS element %d: got %g want %g", i, got[i], src[i])
		}
	}
}

func TestNilStatsDisk(t *testing.T) {
	d := NewDisk(NewMemFS(), sim.Delta(1), nil)
	laf, err := d.CreateLAF("a", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := laf.WriteAll(make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := laf.ReadAll(); err != nil {
		t.Fatal(err)
	}
	if d.Stats() != nil {
		t.Error("Stats should be nil")
	}
}

func TestSpanAndTotalLen(t *testing.T) {
	chunks := []Chunk{{10, 5}, {2, 3}, {30, 1}}
	if s := Span(chunks); s.Off != 2 || s.Len != 29 {
		t.Errorf("Span = %+v", s)
	}
	if n := TotalLen(chunks); n != 9 {
		t.Errorf("TotalLen = %d, want 9", n)
	}
	if s := Span(nil); s.Off != 0 || s.Len != 0 {
		t.Errorf("Span(nil) = %+v", s)
	}
}

func TestChunkRoundTripProperty(t *testing.T) {
	// Property: writing arbitrary data through arbitrary disjoint chunks
	// and reading it back yields the same data, on both filesystems.
	type spec struct {
		Starts []uint8
		Vals   []float64
	}
	check := func(s spec) bool {
		// Build disjoint chunks from the starts: each start s maps to
		// offset base + s%8, length 1..4, spaced apart.
		var chunks []Chunk
		base := int64(0)
		for _, st := range s.Starts {
			off := base + int64(st%8)
			ln := int(st%4) + 1
			chunks = append(chunks, Chunk{off, ln})
			base = off + int64(ln) + 1 // guarantee disjoint
		}
		total := TotalLen(chunks)
		if total == 0 {
			return true
		}
		src := make([]float64, total)
		for i := range src {
			if i < len(s.Vals) && !math.IsNaN(s.Vals[i]) {
				src[i] = s.Vals[i]
			} else {
				src[i] = float64(i)
			}
		}
		d := NewDisk(NewMemFS(), sim.Delta(1), nil)
		laf, err := d.CreateLAF("p", base+16)
		if err != nil {
			return false
		}
		if _, err := laf.WriteChunks(chunks, src); err != nil {
			return false
		}
		dst := make([]float64, total)
		if _, err := laf.ReadChunks(chunks, dst); err != nil {
			return false
		}
		sieved := make([]float64, total)
		if _, err := laf.ReadChunksSieved(chunks, sieved); err != nil {
			return false
		}
		for i := range src {
			if dst[i] != src[i] || sieved[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPhantomModeAccountsButSkipsData(t *testing.T) {
	stats := &trace.IOStats{}
	d := NewDisk(NewMemFS(), sim.Delta(4), stats)
	d.SetPhantom(true)
	if !d.Phantom() {
		t.Fatal("Phantom() should report true")
	}
	laf, err := d.CreateLAF("a", 1<<20) // would be 8 MiB if materialized
	if err != nil {
		t.Fatal(err)
	}
	src := []float64{1, 2, 3, 4}
	if _, err := laf.WriteChunks([]Chunk{{0, 4}}, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 4)
	secs, err := laf.ReadChunks([]Chunk{{0, 4}}, dst)
	if err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 {
		t.Error("phantom read should not deliver data")
	}
	if secs <= 0 {
		t.Error("phantom read should still cost simulated time")
	}
	if stats.SlabReads != 1 || stats.SlabWrites != 1 || stats.BytesRead != 16 || stats.BytesWritten != 16 {
		t.Errorf("phantom accounting wrong: %+v", stats)
	}
	// Sieved phantom reads account the span.
	before := stats.BytesRead
	if _, err := laf.ReadChunksSieved([]Chunk{{0, 2}, {10, 2}}, dst); err != nil {
		t.Fatal(err)
	}
	if got := stats.BytesRead - before; got != 48 { // span = 12 elems * 4 B
		t.Errorf("phantom sieved bytes = %d, want 48", got)
	}
}
