package cluster

import (
	"math"
	"testing"
)

// TestAppendNDJSON pins the forwarding wire format: one canonical line per
// observation, plain keys raw, other keys JSON-escaped, numbers in their
// shortest round-tripping form.
func TestAppendNDJSON(t *testing.T) {
	v := func(f float64) *float64 { return &f }
	got := appendNDJSON(nil, []Observation{
		{Key: "us.web.0", Value: v(12.5)},
		{Key: `a"b\c`, Value: v(math.Copysign(0, -1)), TS: v(1700000000.25)},
		{Key: "é\n\u2028", Value: v(1e21), TS: v(0)},
		{Key: "x", Value: v(math.SmallestNonzeroFloat64)},
	})
	want := `{"key":"us.web.0","value":12.5}` + "\n" +
		`{"key":"a\"b\\c","value":-0,"ts":1.70000000025e+09}` + "\n" +
		`{"key":"é\n\u2028","value":1e+21,"ts":0}` + "\n" +
		`{"key":"x","value":5e-324}` + "\n"
	if string(got) != want {
		t.Fatalf("appendNDJSON =\n%s\nwant\n%s", got, want)
	}
}
