package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pb is a minimal protobuf writer for building fixed profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, data []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// fixedProfile is a CPU profile with five leaf functions; the 500 ns
// sample is labeled as output checking and must not count.
func fixedProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"github.com/ooc-hpf/passion/internal/exec.(*interp).axpy",
		"runtime.mallocgc",
		"encoding/json.(*encodeState).marshal",
		"net/http.(*conn).serve",
		"main.verify",
		checkLabel, "check",
		"github.com/ooc-hpf/passion/internal/mp.(*Proc).Send",
	}
	var p pb
	p.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b) // samples/count
	p.bytes(1, (&pb{}).varint(1, 3).varint(2, 4).b) // cpu/nanoseconds
	// sample: location ids (leaf first), values (count, cpu ns)
	sample := func(cpu uint64, label bool, locs ...uint64) {
		s := (&pb{}).bytes(1, packed(locs...)).bytes(2, packed(cpu/10, cpu))
		if label {
			s.bytes(3, (&pb{}).varint(1, 10).varint(2, 11).b)
		}
		p.bytes(2, s.b)
	}
	sample(600, false, 1, 5)
	sample(200, false, 2, 1)
	sample(100, false, 3)
	sample(50, false, 4)
	sample(500, true, 5)
	sample(50, false, 6) // inlined mp call inside axpy: the mp frame is the leaf
	for id, fn := range []uint64{1, 2, 3, 4, 5} {
		loc := (&pb{}).varint(1, uint64(id+1)).bytes(4, (&pb{}).varint(1, fn).varint(2, 10).b)
		p.bytes(4, loc.b)
	}
	p.bytes(4, (&pb{}).varint(1, 6).bytes(4, (&pb{}).varint(1, 6).b).bytes(4, (&pb{}).varint(1, 1).b).b)
	for id, name := range []uint64{5, 6, 7, 8, 9, 12} {
		p.bytes(5, (&pb{}).varint(1, uint64(id+1)).varint(2, name).b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestProfileSharesOfFixedProfile(t *testing.T) {
	shares, samples, err := profileShares(fixedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if samples != 5 {
		t.Errorf("%d samples counted, want 5", samples)
	}
	want := map[string]float64{"exec": 0.6, "runtime": 0.2, "encoding-json": 0.1, "net-http": 0.05, "mp": 0.05}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += shares[b]
		if math.Abs(shares[b]-want[b]) > 1e-12 {
			t.Errorf("share %s = %v, want %v", b, shares[b], want[b])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/ooc-hpf/passion/internal/collio.Redistribute":          "collio",
		"github.com/ooc-hpf/passion/internal/dist.Map.ToGlobal":            "dist",
		"github.com/ooc-hpf/passion/internal/serve.(*Server).worker.func1": "serve",
		"github.com/ooc-hpf/passion/internal/gaxpy.FillA":                  "other",
		"internal/runtime/maps.(*Map).getWithoutKeySmallFastStr":           "runtime",
		"runtime.memmove":                               "runtime",
		"net/http.(*persistConn).readLoop":              "net-http",
		"encoding/json.Unmarshal":                       "encoding-json",
		"main.(*batch).do":                              "other",
		"syscall.Syscall6":                              "other",
		"github.com/ooc-hpf/passion/internal/hpf.Parse": "hpf",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestProfileWithoutSamplesIsAnError(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write((&pb{}).bytes(6, nil).b)
	zw.Close()
	if _, _, err := profileShares(buf.Bytes()); err == nil {
		t.Error("empty profile accepted")
	}
}
