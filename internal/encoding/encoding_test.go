package encoding

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func randomSketch(rng *rand.Rand, k, n int) *core.Sketch {
	s := core.New(k)
	for i := 0; i < n; i++ {
		s.Add(math.Exp(rng.NormFloat64() * 2))
	}
	return s
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, k := range []int{1, 5, 10, 20} {
		s := randomSketch(rng, k, 1000)
		data := Marshal(s)
		if want := 4 + (2*k+4)*8; len(data) != want {
			t.Errorf("k=%d: serialized %d bytes, want %d", k, len(data), want)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.K != s.K || got.Min != s.Min || got.Max != s.Max ||
			got.Count != s.Count || got.LogCount != s.LogCount {
			t.Errorf("k=%d: header mismatch", k)
		}
		for i := 0; i < k; i++ {
			if got.Pow[i] != s.Pow[i] || got.LogPow[i] != s.LogPow[i] {
				t.Errorf("k=%d: sums mismatch at %d", k, i)
			}
		}
	}
}

func TestMarshalSizeUnder200Bytes(t *testing.T) {
	s := core.New(10)
	s.Add(1)
	if n := len(Marshal(s)); n >= 200 {
		t.Errorf("k=10 sketch serializes to %d bytes, want < 200 (paper claim)", n)
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		{0, 0},
		{0x53, 0x4D, 1, 10}, // wrong magic order
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	s := core.New(3)
	s.Add(1)
	good := Marshal(s)
	if _, err := Unmarshal(good[:len(good)-1]); err == nil {
		t.Error("truncated data must error")
	}
	bad := append([]byte{}, good...)
	bad[2] = 99 // version
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad version must error")
	}
	bad2 := append([]byte{}, good...)
	bad2[3] = 200 // k out of range
	if _, err := Unmarshal(bad2); err == nil {
		t.Error("bad k must error")
	}
}

// TestUnmarshalRejectsOutOfDomain: a well-formed record whose vector no
// sequence of in-domain adds and merges produces is ErrCorrupt, while the
// largest in-domain vector, MaxCount copies of core.MaxAbs(k), decodes.
func TestUnmarshalRejectsOutOfDomain(t *testing.T) {
	const k = 4
	base := core.New(k)
	for _, x := range []float64{-2, 0.5, 3} {
		base.Add(x)
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name string
		edit func(s *core.Sketch)
	}{
		{"nan-min", func(s *core.Sketch) { s.Min = nan }},
		{"nan-count", func(s *core.Sketch) { s.Count = nan }},
		{"nan-logpow", func(s *core.Sketch) { s.LogPow[2] = nan }},
		{"inf-pow", func(s *core.Sketch) { s.Pow[1] = inf }},
		{"inf-logpow", func(s *core.Sketch) { s.LogPow[0] = -inf }},
		{"inf-count", func(s *core.Sketch) { s.Count = inf }},
		{"inf-logcount", func(s *core.Sketch) { s.LogCount = inf }},
		{"negative-count", func(s *core.Sketch) { s.Count = -1 }},
		{"count-above-max", func(s *core.Sketch) { s.Count = 2 * core.MaxCount }},
		{"nonempty-inf-min", func(s *core.Sketch) { s.Min = -inf }},
		{"nonempty-inf-max", func(s *core.Sketch) { s.Max = inf }},
	} {
		s := base.Clone()
		tc.edit(s)
		if _, err := Unmarshal(Marshal(s)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}

	top := core.New(k)
	top.Add(core.MaxAbs(k))
	top.Count, top.LogCount = core.MaxCount, core.MaxCount
	for i := range top.Pow {
		top.Pow[i] *= core.MaxCount
		top.LogPow[i] *= core.MaxCount
	}
	if _, err := Unmarshal(Marshal(top)); err != nil {
		t.Errorf("largest in-domain vector: %v", err)
	}
}

func TestLowPrecisionRoundTripFullMantissa(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	s := randomSketch(rng, 8, 500)
	got, err := UnmarshalLowPrecision(MarshalLowPrecision(s, 52))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got.Pow[i] != s.Pow[i] {
			t.Errorf("52-bit mantissa should be lossless: Pow[%d] %v vs %v", i, got.Pow[i], s.Pow[i])
		}
	}
}

func TestLowPrecisionErrorScaling(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	s := randomSketch(rng, 10, 10000)
	for _, mbits := range []int{8, 16, 30} {
		got, err := UnmarshalLowPrecision(MarshalLowPrecision(s, mbits))
		if err != nil {
			t.Fatal(err)
		}
		tol := math.Pow(2, -float64(mbits)) * 1.01
		for i := 0; i < 10; i++ {
			rel := math.Abs(got.Pow[i]-s.Pow[i]) / math.Abs(s.Pow[i])
			if rel > tol {
				t.Errorf("mbits=%d: Pow[%d] relative error %v > %v", mbits, i, rel, tol)
			}
		}
	}
}

func TestLowPrecisionSmallerThanFull(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	s := randomSketch(rng, 10, 100)
	full := len(Marshal(s))
	low := len(MarshalLowPrecision(s, 8))
	if low >= full {
		t.Errorf("low precision (%dB) not smaller than full (%dB)", low, full)
	}
	if BitsPerValue(8) != 20 {
		t.Errorf("BitsPerValue(8) = %d, want 20 (the paper's milan setting)", BitsPerValue(8))
	}
}

func TestLowPrecisionRandomizedRoundingUnbiased(t *testing.T) {
	// Encode many slightly different values; the mean quantization error
	// should be near zero (unbiased), unlike truncation.
	rng := rand.New(rand.NewPCG(9, 10))
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		v := 1 + rng.Float64()
		dec := expand(reduce(v, 10), 10)
		sum += dec - v
	}
	meanErr := sum / float64(n)
	step := math.Pow(2, -10) // quantization step around 1..2
	if math.Abs(meanErr) > step/10 {
		t.Errorf("mean rounding error %v suggests bias (step %v)", meanErr, step)
	}
}

func TestLowPrecisionSpecials(t *testing.T) {
	s := core.New(2)
	// Empty sketch has ±Inf min/max which live in the exact header.
	data := MarshalLowPrecision(s, 8)
	got, err := UnmarshalLowPrecision(data)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Min, 1) || !math.IsInf(got.Max, -1) {
		t.Error("empty sketch min/max lost")
	}
}

// TestUnmarshalLowPrecisionRejectsOutOfDomain: the low-precision decoder
// refuses what Unmarshal refuses. Min, Max, Count and LogCount travel exact,
// so the header cases need no rounding to survive; a non-finite power sum is
// packed with its exponent intact.
func TestUnmarshalLowPrecisionRejectsOutOfDomain(t *testing.T) {
	base := core.New(4)
	for _, x := range []float64{-2, 0.5, 3} {
		base.Add(x)
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name string
		edit func(s *core.Sketch)
	}{
		{"nan-min", func(s *core.Sketch) { s.Min = nan }},
		{"nan-count", func(s *core.Sketch) { s.Count = nan }},
		{"inf-pow", func(s *core.Sketch) { s.Pow[1] = inf }},
		{"nan-logpow", func(s *core.Sketch) { s.LogPow[2] = nan }},
		{"inf-logcount", func(s *core.Sketch) { s.LogCount = inf }},
		{"nonempty-inf-max", func(s *core.Sketch) { s.Max = inf }},
	} {
		s := base.Clone()
		tc.edit(s)
		for _, mbits := range []int{0, 20, 52} {
			if _, err := UnmarshalLowPrecision(MarshalLowPrecision(s, mbits)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s at %d bits: err = %v, want ErrCorrupt", tc.name, mbits, err)
			}
		}
	}
	if _, err := UnmarshalLowPrecision(MarshalLowPrecision(base, 20)); err != nil {
		t.Errorf("in-domain vector: %v", err)
	}
	// The largest in-domain vector holds power sums a few ulps below
	// MaxFloat64; randomized rounding must not carry them to +Inf.
	for _, k := range []int{1, 10, core.MaxK} {
		top := core.New(k)
		top.Add(core.MaxAbs(k))
		top.Count, top.LogCount = core.MaxCount, core.MaxCount
		for i := range top.Pow {
			top.Pow[i] *= core.MaxCount
			top.LogPow[i] *= core.MaxCount
		}
		for _, mbits := range []int{0, 8, 20, 52} {
			if _, err := UnmarshalLowPrecision(MarshalLowPrecision(top, mbits)); err != nil {
				t.Errorf("largest in-domain vector at k=%d, %d bits: %v", k, mbits, err)
			}
		}
	}
}

// FuzzUnmarshalLowPrecision: no input panics the low-precision decoder, and
// every sketch it accepts is in the domain the estimators are built for.
func FuzzUnmarshalLowPrecision(f *testing.F) {
	s := core.New(4)
	for _, x := range []float64{-2, 0.5, 3} {
		s.Add(x)
	}
	valid := MarshalLowPrecision(s, 20)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(MarshalLowPrecision(s, 0))
	f.Add(MarshalLowPrecision(s, 52))
	f.Add(MarshalLowPrecision(core.New(2), 8))
	nanMin := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(nanMin[5:], math.Float64bits(math.NaN()))
	f.Add(nanMin)
	f.Add([]byte{0x4C, 0x4D}) // the magic alone
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalLowPrecision(data)
		if err != nil {
			return
		}
		if !inDomain(got) {
			t.Fatalf("accepted out-of-domain sketch %+v", got)
		}
	})
}

func TestLowPrecisionCorrupt(t *testing.T) {
	if _, err := UnmarshalLowPrecision([]byte{1, 2, 3}); err == nil {
		t.Error("expected error")
	}
	s := core.New(4)
	s.Add(2)
	data := MarshalLowPrecision(s, 12)
	if _, err := UnmarshalLowPrecision(data[:10]); err == nil {
		t.Error("truncated low-precision data must error")
	}
}

// Property: full-precision round trip preserves quantile-relevant state for
// arbitrary accumulations, and merging serialized copies equals merging
// originals.
func TestMarshalMergeCommutesQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		a := randomSketch(rng, 6, 50)
		b := randomSketch(rng, 6, 70)
		// Merge then marshal.
		m1 := a.Clone()
		if err := m1.Merge(b); err != nil {
			return false
		}
		d1 := Marshal(m1)
		// Marshal, unmarshal, then merge.
		ra, err := Unmarshal(Marshal(a))
		if err != nil {
			return false
		}
		rb, err := Unmarshal(Marshal(b))
		if err != nil {
			return false
		}
		if err := ra.Merge(rb); err != nil {
			return false
		}
		d2 := Marshal(ra)
		if len(d1) != len(d2) {
			return false
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := bitWriter{buf: make([]byte, 32)}
	vals := []struct {
		v uint64
		n int
	}{{0x5, 3}, {0x1FF, 9}, {0, 1}, {0xFFFFFFFFFFFFF, 52}, {1, 1}}
	for _, c := range vals {
		w.writeBits(c.v, c.n)
	}
	r := bitReader{buf: w.buf}
	for i, c := range vals {
		if got := r.readBits(c.n); got != c.v {
			t.Errorf("bits[%d] = %x, want %x", i, got, c.v)
		}
	}
}
