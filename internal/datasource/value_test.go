package datasource

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestStringifyMatchesSprint pins Rows.Str's rendering of numbers to
// fmt.Sprint's, which it replaced, across magnitudes, signs and the
// special floats.
func TestStringifyMatchesSprint(t *testing.T) {
	vals := []any{int64(0), int64(-7), int64(math.MaxInt64), int64(math.MinInt64), "x",
		0.0, math.Copysign(0, -1), 2.5, 1e20, 1e21, 1e-4, 1e-5, 123456789.125, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		vals = append(vals, rng.Int63()>>rng.Intn(63), math.Float64frombits(rng.Uint64()), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	for _, v := range vals {
		if got, want := stringify(v), fmt.Sprint(v); got != want {
			t.Errorf("stringify(%T %v) = %q, fmt.Sprint gives %q", v, v, got, want)
		}
	}
}

// TestKeyOfValuesRendering pins the composite-key format (length-prefixed
// KeyString per value) across the buffer sizes the renderer switches on, and
// that the append form composes to the same bytes.
func TestKeyOfValuesRendering(t *testing.T) {
	long := strings.Repeat("x", 100)
	vs := []Value{int64(5), 5.0, 2.5, "a:b", nil, long}
	want := "2:i5" + "2:i5" + "4:f2.5" + "4:sa:b" + "2:\x00N" + "101:s" + long
	if got := KeyOfValues(vs); got != want {
		t.Fatalf("KeyOfValues = %q, want %q", got, want)
	}
	if got := string(AppendKeyOfValues([]byte("tmpl\x00"), vs)); got != "tmpl\x00"+want {
		t.Fatalf("AppendKeyOfValues = %q", got)
	}
	if KeyOfValues(nil) != "" {
		t.Fatal("empty tuple must render empty")
	}
}

// TestSameKeyAgreesWithKeyOfValues: SameKey must decide exactly the equality
// of the rendered keys, across types that collide (5 and 5.0, "5" and 5),
// the special floats and the magnitudes where an integral float stops
// rendering as an integer.
func TestSameKeyAgreesWithKeyOfValues(t *testing.T) {
	vals := []Value{nil, int64(0), int64(5), int64(-5), int64(1e15), 0.0, math.Copysign(0, -1),
		5.0, -5.0, 2.5, 1e15, 1e15 - 1, math.Inf(1), math.Inf(-1), math.NaN(), math.NaN(),
		"", "5", "i5", true, []byte("5")}
	for _, a := range vals {
		for _, b := range vals {
			for _, pair := range [][2][]Value{{{a}, {b}}, {{a, b}, {b, a}}, {{a}, {a, b}}} {
				want := KeyOfValues(pair[0]) == KeyOfValues(pair[1])
				if got := SameKey(pair[0], pair[1]); got != want {
					t.Errorf("SameKey(%#v, %#v) = %v, keys equal: %v", pair[0], pair[1], got, want)
				}
			}
		}
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"%", "", true},
		{"%", "anything", true},
		{"a%", "abc", true},
		{"a%", "bac", false},
		{"%c", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"%b%", "abc", true},
		{"ABC", "abc", true}, // case-insensitive
		{"a\\%b", "a%b", true},
		{"a\\%b", "axb", false},
		{"", "", true},
		{"", "x", false},
		{"%%", "x", true},
	}
	for _, c := range cases {
		if got := Like(c.pat, c.s); got != c.want {
			t.Errorf("Like(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}
