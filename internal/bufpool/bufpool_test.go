package bufpool

import (
	"math"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 20, 20 - minBits}, {1<<20 + 1, 21 - minBits},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestClassOfCap(t *testing.T) {
	cases := []struct{ c, class int }{
		{0, -1}, {63, -1}, {64, 0}, {65, -1}, {96, -1}, {128, 1},
		{1 << 26, 26 - minBits}, {1 << 27, -1},
	}
	for _, c := range cases {
		if got := classOfCap(c.c); got != c.class {
			t.Errorf("classOfCap(%d) = %d, want %d", c.c, got, c.class)
		}
	}
}

func TestGetLenCapAndRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 1024, 1000} {
		b := GetF64(n)
		if len(b) != n {
			t.Fatalf("GetF64(%d): len %d", n, len(b))
		}
		if n > 0 && (cap(b)&(cap(b)-1)) != 0 {
			t.Fatalf("GetF64(%d): cap %d not a power of two", n, cap(b))
		}
		for i := range b {
			b[i] = float64(i)
		}
		PutF64(b)
	}
	for _, n := range []int{0, 1, 100, 4096} {
		b := GetBytes(n)
		if len(b) != n {
			t.Fatalf("GetBytes(%d): len %d", n, len(b))
		}
		PutBytes(b)
	}
	for _, n := range []int{0, 1, 100, 4096} {
		b := GetInts(n)
		if len(b) != n {
			t.Fatalf("GetInts(%d): len %d", n, len(b))
		}
		PutInts(b)
	}
}

func TestReuseSameClass(t *testing.T) {
	a := GetF64(100) // class of cap 128
	p := &a[:1][0]
	PutF64(a)
	b := GetF64(128)
	if &b[:1][0] != p {
		t.Errorf("expected the released buffer back (LIFO free list)")
	}
	PutF64(b)
}

func TestForeignBufferDropped(t *testing.T) {
	ResetStats()
	PutF64(make([]float64, 100)) // cap 100: not a class size
	PutF64(nil)
	if s := Snapshot(); s.Drops != 1 || s.Puts != 0 {
		t.Errorf("drops=%d puts=%d, want 1/0", s.Drops, s.Puts)
	}
}

func TestZeroLengthGetDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		b := GetF64(0)
		if b == nil {
			t.Fatal("GetF64(0) returned nil")
		}
		PutF64(b)
	}); n != 0 {
		t.Errorf("GetF64(0)/PutF64: %v allocs/run, want 0", n)
	}
}

func TestSteadyStateZeroAllocs(t *testing.T) {
	// Prime the class so the measured loop only recycles.
	PutF64(GetF64(1024))
	PutBytes(GetBytes(1024))
	PutInts(GetInts(1024))
	if n := testing.AllocsPerRun(100, func() {
		b := GetF64(1000)
		b[0] = 1
		PutF64(b)
		c := GetBytes(1000)
		c[0] = 1
		PutBytes(c)
		d := GetInts(1000)
		d[0] = 1
		PutInts(d)
	}); n != 0 {
		t.Errorf("steady-state Get/Put: %v allocs/run, want 0", n)
	}
}

func TestCheckedDoubleReleasePanics(t *testing.T) {
	SetChecked(true)
	defer SetChecked(false)
	b := GetF64(64)
	PutF64(b)
	defer func() {
		if recover() == nil {
			t.Errorf("double release did not panic")
		}
	}()
	PutF64(b)
}

func TestCheckedPoisonsReleasedBuffer(t *testing.T) {
	SetChecked(true)
	defer SetChecked(false)
	b := GetF64(64)
	for i := range b {
		b[i] = float64(i)
	}
	alias := b
	PutF64(b)
	for i, v := range alias {
		if !math.IsNaN(v) {
			t.Fatalf("released buffer element %d = %v, want NaN poison", i, v)
		}
	}
	c := GetBytes(64)
	alias2 := c
	PutBytes(c)
	for i, v := range alias2 {
		if v != bytePoison {
			t.Fatalf("released byte buffer element %d = %#x, want %#x", i, v, bytePoison)
		}
	}
	d := GetInts(64)
	alias3 := d
	PutInts(d)
	for i, v := range alias3 {
		if v != intPoison {
			t.Fatalf("released int buffer element %d = %d, want %d", i, v, intPoison)
		}
	}
}

func TestCheckedReacquireClearsTracking(t *testing.T) {
	SetChecked(true)
	defer SetChecked(false)
	b := GetF64(64)
	PutF64(b)
	c := GetF64(64) // same storage back
	PutF64(c)       // must not be treated as a double release
}
