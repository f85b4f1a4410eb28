package sketch

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/encoding"
)

func servingBackends() []Backend {
	return []Backend{
		MomentsBackend(10),
		Merge12Backend(32),
		TDigestBackend(100),
		SamplingBackend(512),
	}
}

func TestParseBackend(t *testing.T) {
	cases := []struct {
		spec        string
		fingerprint string
	}{
		{"moments", "moments(k=10)"},
		{"moments:12", "moments(k=12)"},
		{"merge12", "merge12(k=32)"},
		{"merge12:64", "merge12(k=64)"},
		{"merge12:33", "merge12(k=34)"}, // odd buffers round up
		{"tdigest", "tdigest(c=100)"},
		{"t-digest:200", "tdigest(c=200)"},
		{"sampling:100", "sampling(n=100)"},
		{"TDigest", "tdigest(c=100)"}, // case-insensitive
	}
	for _, tc := range cases {
		b, err := ParseBackend(tc.spec)
		if err != nil {
			t.Errorf("ParseBackend(%q): %v", tc.spec, err)
			continue
		}
		if b.Fingerprint() != tc.fingerprint {
			t.Errorf("ParseBackend(%q) = %s, want %s", tc.spec, b.Fingerprint(), tc.fingerprint)
		}
		if b.New == nil || b.New() == nil {
			t.Errorf("ParseBackend(%q): no constructor", tc.spec)
		}
	}
	for _, bad := range []string{"", "kll", "moments:99", "tdigest:-1", "tdigest:x"} {
		if _, err := ParseBackend(bad); err == nil {
			t.Errorf("ParseBackend(%q) accepted", bad)
		}
	}
}

// TestServingContract exercises Clone/Reset/IsEmpty on every backend:
// clones must be independent, Reset must empty in place.
func TestServingContract(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, b := range servingBackends() {
		s := b.New()
		if !s.IsEmpty() {
			t.Errorf("%s: fresh summary not empty", b.Name)
		}
		for i := 0; i < 500; i++ {
			s.Add(rng.ExpFloat64() * 10)
		}
		c := s.Clone()
		if c.Count() != s.Count() {
			t.Errorf("%s: clone count %v, want %v", b.Name, c.Count(), s.Count())
		}
		if q1, q2 := c.Quantile(0.5), s.Quantile(0.5); q1 != q2 {
			t.Errorf("%s: clone median %v, original %v", b.Name, q1, q2)
		}
		// Mutating the clone must not leak into the original.
		before := s.Count()
		for i := 0; i < 100; i++ {
			c.Add(1e9)
		}
		if s.Count() != before {
			t.Errorf("%s: clone mutation leaked (count %v, want %v)", b.Name, s.Count(), before)
		}
		c.Reset()
		if !c.IsEmpty() || c.Count() != 0 {
			t.Errorf("%s: Reset left count %v", b.Name, c.Count())
		}
		if math.IsNaN(s.Quantile(0.9)) {
			t.Errorf("%s: original broken after clone reset", b.Name)
		}
		// A reset summary is reusable.
		c.Add(7)
		if c.Count() != 1 || c.Quantile(0.5) != 7 {
			t.Errorf("%s: post-Reset reuse: count %v, median %v", b.Name, c.Count(), c.Quantile(0.5))
		}
	}
}

// TestCodecRoundTrip pins every backend's binary codec: a decoded summary
// must answer exactly like the one that was encoded (the codecs serialize
// complete state, PRNG cursors included).
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	phis := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	for _, b := range servingBackends() {
		s := b.New()
		for i := 0; i < 3000; i++ {
			s.Add(math.Exp(rng.NormFloat64()))
		}
		blob, err := b.Marshal(s)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", b.Name, err)
		}
		back, err := b.Unmarshal(blob)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", b.Name, err)
		}
		if back.Count() != s.Count() {
			t.Errorf("%s: count %v, want %v", b.Name, back.Count(), s.Count())
		}
		for _, phi := range phis {
			if got, want := back.Quantile(phi), s.Quantile(phi); got != want {
				t.Errorf("%s: decoded q(%v) = %v, want %v", b.Name, phi, got, want)
			}
		}
		// Second encode must be byte-identical (canonical form).
		blob2, err := b.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != string(blob2) {
			t.Errorf("%s: re-encode differs (%d vs %d bytes)", b.Name, len(blob), len(blob2))
		}
	}
}

// TestCodecEmptyRoundTrip: empty summaries must round-trip too — snapshots
// legitimately hold freshly created keys.
func TestCodecEmptyRoundTrip(t *testing.T) {
	for _, b := range servingBackends() {
		blob, err := b.Marshal(b.New())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		back, err := b.Unmarshal(blob)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if !back.IsEmpty() {
			t.Errorf("%s: decoded empty summary has count %v", b.Name, back.Count())
		}
	}
}

func TestCodecRejectsCrossBackendPayloads(t *testing.T) {
	backends := servingBackends()
	for _, enc := range backends {
		s := enc.New()
		s.Add(1)
		blob, err := enc.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, dec := range backends {
			if dec.Name == enc.Name {
				continue
			}
			if _, err := dec.Unmarshal(blob); err == nil {
				t.Errorf("%s payload accepted by %s decoder", enc.Name, dec.Name)
			}
		}
	}
	// Marshal must reject a summary of the wrong concrete type.
	if _, err := TDigestBackend(100).Marshal(NewSampling(8)); err == nil {
		t.Error("tdigest backend marshaled a sampling summary")
	}
}

// TestCodecRejectsForeignParams: a payload carrying a different size
// parameter than the decoding backend's own must be rejected — the
// parameter sizes constructor allocations, so accepting a smuggled one
// would let a tiny hostile record demand an arbitrary buffer (or, for the
// t-digest's float compression, overflow the int conversion outright).
func TestCodecRejectsForeignParams(t *testing.T) {
	pairs := []struct{ enc, dec Backend }{
		{Merge12Backend(32), Merge12Backend(64)},
		{TDigestBackend(100), TDigestBackend(200)},
		{SamplingBackend(256), SamplingBackend(512)},
	}
	for _, tc := range pairs {
		s := tc.enc.New()
		s.Add(1)
		blob, err := tc.enc.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tc.dec.Unmarshal(blob); err == nil {
			t.Errorf("%s payload accepted by %s decoder", tc.enc.Fingerprint(), tc.dec.Fingerprint())
		}
	}

	// A hostile compression value patched into an otherwise valid t-digest
	// payload must fail cleanly, not panic sizing the scratch buffer
	// (compression is the first float of the payload, after the 4-byte
	// envelope header).
	b := TDigestBackend(100)
	td := b.New()
	td.Add(1)
	blob, err := b.Marshal(td)
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(forged[4:], math.Float64bits(1e300))
	if _, err := b.Unmarshal(forged); err == nil {
		t.Error("t-digest payload with compression=1e300 accepted")
	}

	// A tiny payload claiming a huge item count must fail before allocating.
	sb := SamplingBackend(256)
	sam := sb.New()
	sam.Add(1)
	blob, err = sb.Marshal(sam)
	if err != nil {
		t.Fatal(err)
	}
	forged = append([]byte(nil), blob[:4]...)
	forged = binary.AppendUvarint(forged, 256)                             // size (matches backend)
	forged = binary.LittleEndian.AppendUint64(forged, math.Float64bits(1)) // n
	forged = binary.AppendUvarint(forged, 1<<22)                           // claimed item count
	forged = append(forged, 0, 0, 0, 0, 0, 0, 0, 0)                        // far too few bytes
	if _, err := sb.Unmarshal(forged); err == nil {
		t.Error("sampling payload with an implausible item count accepted")
	}
}

func TestCodecRejectsCorruptPayloads(t *testing.T) {
	for _, b := range servingBackends() {
		s := b.New()
		for i := 0; i < 200; i++ {
			s.Add(float64(i))
		}
		blob, err := b.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Unmarshal(blob[:len(blob)-3]); err == nil {
			t.Errorf("%s: truncated payload accepted", b.Name)
		}
		if _, err := b.Unmarshal(append(append([]byte(nil), blob...), 0xFF)); err == nil {
			t.Errorf("%s: payload with trailing garbage accepted", b.Name)
		}
	}
	if _, _, err := encoding.UnmarshalEnvelope([]byte{1, 2}); err == nil {
		t.Error("short envelope accepted")
	}
}

// TestMomentsPayloadStaysBare: the moments backend's serialized form must
// remain the bare encoding layout, byte-identical to earlier releases — no
// envelope regression for the default backend.
func TestMomentsPayloadStaysBare(t *testing.T) {
	b := MomentsBackend(10)
	m := b.New().(*MSketch)
	for i := 1; i <= 100; i++ {
		m.Add(float64(i))
	}
	blob, err := b.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if encoding.IsEnveloped(blob) {
		t.Fatal("moments payload is enveloped")
	}
	raw, err := encoding.Unmarshal(blob)
	if err != nil {
		t.Fatalf("moments payload is not the bare encoding layout: %v", err)
	}
	if raw.Count != 100 {
		t.Errorf("decoded count %v, want 100", raw.Count)
	}
}

// TestBackendQuantileSanity: every backend's quantile estimates must sit
// near the exact sample quantiles on a continuous stream — the bar a
// serving backend has to clear before the store will answer from it.
func TestBackendQuantileSanity(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	n := 20000
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64())
	}
	for _, b := range servingBackends() {
		s := b.New()
		for _, v := range data {
			s.Add(v)
		}
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		for _, phi := range []float64{0.1, 0.5, 0.9, 0.99} {
			got := s.Quantile(phi)
			rank := float64(sort.SearchFloat64s(sorted, got)) / float64(n)
			if math.Abs(rank-phi) > 0.05 {
				t.Errorf("%s: q(%v) = %v has sample rank %v", b.Name, phi, got, rank)
			}
		}
	}
}
