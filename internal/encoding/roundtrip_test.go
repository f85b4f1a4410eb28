package encoding_test

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/encoding"
	"repro/internal/sketch"
	"repro/moments"
)

// TestLowPrecisionQuantileRoundTrip is the end-to-end check for the
// Appendix C codec: a sketch marshaled at reduced precision and decoded
// through the public API must still produce quantile estimates of the same
// quality as the original, and the public UnmarshalBinary must sniff the
// low-precision magic without being told.
func TestLowPrecisionQuantileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	n := 20000
	data := make([]float64, n)
	s := moments.New()
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64())
		s.Add(data[i])
	}
	sort.Float64s(data)

	for _, mbits := range []int{8, 16, 30} {
		blob, err := s.MarshalLowPrecision(mbits)
		if err != nil {
			t.Fatal(err)
		}
		if full, _ := s.MarshalBinary(); len(blob) >= len(full) {
			t.Errorf("mbits=%d: %d bytes, not smaller than full %d", mbits, len(blob), len(full))
		}
		var back moments.Sketch
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatalf("mbits=%d: UnmarshalBinary: %v", mbits, err)
		}
		if back.Count() != s.Count() {
			t.Errorf("mbits=%d: count %v, want %v (header must stay exact)", mbits, back.Count(), s.Count())
		}
		for _, phi := range []float64{0.1, 0.5, 0.9, 0.99} {
			got, err := back.Quantile(phi)
			if err != nil {
				t.Fatalf("mbits=%d phi=%v: %v", mbits, phi, err)
			}
			rank := float64(sort.SearchFloat64s(data, got)) / float64(n)
			if math.Abs(rank-phi) > 0.05 {
				t.Errorf("mbits=%d phi=%v: estimate %v has sample rank %v", mbits, phi, got, rank)
			}
		}
	}
}

// TestEnvelopeRoundTripAllBackends drives the tagged envelope through
// every serializable serving backend: each backend's Marshal → Unmarshal
// must reproduce the summary exactly, the non-moments payloads must carry
// the envelope magic, and the moments payloads must stay bare (full- and
// low-precision layouts alike), so old snapshots keep decoding.
func TestEnvelopeRoundTripAllBackends(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	values := make([]float64, 5000)
	for i := range values {
		values[i] = math.Exp(rng.NormFloat64())
	}
	backends := []sketch.Backend{
		sketch.MomentsBackend(10),
		sketch.Merge12Backend(32),
		sketch.TDigestBackend(100),
		sketch.SamplingBackend(256),
	}
	for _, b := range backends {
		s := b.New()
		for _, v := range values {
			s.Add(v)
		}
		blob, err := b.Marshal(s)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", b.Name, err)
		}
		if wantEnv := b.Name != "moments"; encoding.IsEnveloped(blob) != wantEnv {
			t.Errorf("%s: IsEnveloped = %v, want %v", b.Name, !wantEnv, wantEnv)
		}
		back, err := b.Unmarshal(blob)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", b.Name, err)
		}
		if back.Count() != s.Count() {
			t.Errorf("%s: count %v, want %v", b.Name, back.Count(), s.Count())
		}
		for _, phi := range []float64{0.05, 0.5, 0.95} {
			if got, want := back.Quantile(phi), s.Quantile(phi); got != want {
				t.Errorf("%s: q(%v) = %v, want %v after round trip", b.Name, phi, got, want)
			}
		}
		// A different backend's decoder must refuse the payload rather than
		// misinterpret it.
		for _, other := range backends {
			if other.Name == b.Name {
				continue
			}
			if _, err := other.Unmarshal(blob); err == nil {
				t.Errorf("%s payload decoded by %s", b.Name, other.Name)
			}
		}
	}
}

// TestBackendRejectsLowPrecisionMoments: the moments backend codec — the
// decoder behind snapshot restore, /restore and coordinator partials —
// reads only the full-precision layout its Marshal writes. A low-precision
// "ML" payload, which no serving path emits, is refused there, while the
// public moments.Sketch decoder still reads it for size-reduced files.
func TestBackendRejectsLowPrecisionMoments(t *testing.T) {
	s := moments.New()
	rng := rand.New(rand.NewPCG(41, 42))
	for range 2000 {
		s.Add(math.Exp(rng.NormFloat64()))
	}
	blob, err := s.MarshalLowPrecision(16)
	if err != nil {
		t.Fatal(err)
	}
	if encoding.IsEnveloped(blob) {
		t.Fatal("low-precision moments payload is enveloped")
	}
	b := sketch.MomentsBackend(moments.DefaultK)
	if _, err := b.Unmarshal(blob); err == nil {
		t.Fatal("backend decoded a low-precision payload")
	}
	full, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if back, err := b.Unmarshal(full); err != nil || back.Count() != s.Count() {
		t.Fatalf("backend decode of the full-precision payload: count %v, err %v", back, err)
	}
	var lp moments.Sketch
	if err := lp.UnmarshalBinary(blob); err != nil || lp.Count() != s.Count() {
		t.Fatalf("moments.UnmarshalBinary of the low-precision payload: count %v, err %v", lp.Count(), err)
	}
}

// The low-precision decoder must reject a stream whose payload bits were
// truncated even when the header survives.
func TestLowPrecisionTruncatedPayload(t *testing.T) {
	s := moments.New()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	blob, err := s.MarshalLowPrecision(12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := encoding.UnmarshalLowPrecision(blob[:len(blob)-4]); err == nil {
		t.Error("truncated payload accepted")
	}
}
