package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
)

// TestAppendToPowKeepsLogPow pins the carved power-sum layout: Pow and
// LogPow share one backing array, so Pow's capacity must stop at K, or an
// append to Pow would write LogPow[0]. Every way a sketch comes to exist —
// New, Clone, CopyFrom into a zero Sketch, and both decoders — is checked.
func TestAppendToPowKeepsLogPow(t *testing.T) {
	for _, k := range []int{1, 2, core.DefaultK, core.MaxK} {
		s := core.New(k)
		s.AddMany([]float64{-2, 0, 0.5, 3, 7})
		var copied core.Sketch
		copied.CopyFrom(s)
		full, err := encoding.Unmarshal(encoding.Marshal(s))
		if err != nil {
			t.Fatal(err)
		}
		low, err := encoding.UnmarshalLowPrecision(encoding.MarshalLowPrecision(s, 20))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			sk   *core.Sketch
		}{{"New", s}, {"Clone", s.Clone()}, {"CopyFrom", &copied}, {"Unmarshal", full}, {"UnmarshalLowPrecision", low}} {
			if cap(tc.sk.Pow) != k || len(tc.sk.LogPow) != k {
				t.Fatalf("k=%d %s: cap(Pow) = %d, len(LogPow) = %d", k, tc.name, cap(tc.sk.Pow), len(tc.sk.LogPow))
			}
			want := slices.Clone(tc.sk.LogPow)
			grown := append(tc.sk.Pow, 42)
			if !slices.Equal(tc.sk.LogPow, want) {
				t.Fatalf("k=%d %s: append to Pow changed LogPow to %v, want %v", k, tc.name, tc.sk.LogPow, want)
			}
			if grown[k] != 42 {
				t.Fatalf("k=%d %s: appended value lost", k, tc.name)
			}
		}
	}
}

// TestCopyFromReusesArrays checks that CopyFrom writes into a destination's
// own arrays when the orders agree, and leaves no aliasing to the source.
func TestCopyFromReusesArrays(t *testing.T) {
	src := core.New(4)
	src.AddMany([]float64{1, 2, 3})
	dst := core.New(4)
	pow := &dst.Pow[0]
	dst.CopyFrom(src)
	if &dst.Pow[0] != pow {
		t.Fatal("CopyFrom reallocated a destination of the same order")
	}
	if !slices.Equal(dst.Pow, src.Pow) || !slices.Equal(dst.LogPow, src.LogPow) ||
		dst.Min != src.Min || dst.Max != src.Max || dst.Count != src.Count || dst.LogCount != src.LogCount {
		t.Fatalf("CopyFrom: got %+v, want %+v", dst, src)
	}
	src.Add(10)
	if dst.Count != 3 || dst.Pow[0] != 6 {
		t.Fatal("CopyFrom destination aliases its source")
	}
	wider := core.New(6)
	wider.CopyFrom(src)
	if wider.K != 4 || len(wider.Pow) != 4 || !slices.Equal(wider.Pow, src.Pow) {
		t.Fatalf("CopyFrom across orders: got %+v", wider)
	}
}
