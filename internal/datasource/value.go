package datasource

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is a database value: int64, float64, string or nil (SQL NULL).
type Value = any

// stringify renders a value as fmt.Sprint does, without fmt's reflection
// for the two numeric kinds that pages render most.
func stringify(v any) string {
	switch x := v.(type) {
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

// Normalize converts convenient Go values (int, int32, uint, bool, float32…)
// to the canonical Value representation. It returns an error for unsupported
// types.
func Normalize(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return nil, nil
	case int64:
		return x, nil
	case int:
		return int64(x), nil
	case int32:
		return int64(x), nil
	case int16:
		return int64(x), nil
	case int8:
		return int64(x), nil
	case uint:
		return int64(x), nil
	case uint32:
		return int64(x), nil
	case uint64:
		if x > math.MaxInt64 {
			return nil, fmt.Errorf("datasource: uint64 value %d overflows int64", x)
		}
		return int64(x), nil
	case float64:
		return x, nil
	case float32:
		return float64(x), nil
	case bool:
		if x {
			return int64(1), nil
		}
		return int64(0), nil
	case string:
		return x, nil
	case []byte:
		// Text often reaches callers as []byte (I/O and encoding layers).
		return string(x), nil
	default:
		return nil, fmt.Errorf("datasource: unsupported value type %T", v)
	}
}

// NormalizeAll normalises a slice of arguments.
func NormalizeAll(args []any) ([]Value, error) {
	out := make([]Value, len(args))
	for i, a := range args {
		v, err := Normalize(a)
		if err != nil {
			return nil, fmt.Errorf("arg %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// Compare orders two values. NULL sorts before everything; numbers compare
// numerically across int64/float64; strings compare lexicographically.
// Comparing a number with a string compares the string's numeric parse when
// possible, else the number's decimal rendering with the string.
func Compare(a, b Value) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		case float64:
			return compareFloat(float64(x), y)
		case string:
			return compareNumString(float64(x), y)
		}
	case float64:
		switch y := b.(type) {
		case int64:
			return compareFloat(x, float64(y))
		case float64:
			return compareFloat(x, y)
		case string:
			return compareNumString(x, y)
		}
	case string:
		switch y := b.(type) {
		case string:
			return strings.Compare(x, y)
		case int64:
			return -compareNumString(float64(y), x)
		case float64:
			return -compareNumString(y, x)
		}
	}
	// Unreachable for normalised values; fall back to formatted comparison.
	return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
}

func compareFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

func compareNumString(x float64, s string) int {
	if f, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
		return compareFloat(x, f)
	}
	return strings.Compare(strconv.FormatFloat(x, 'g', -1, 64), s)
}

// Equal reports whether two values are equal under Compare semantics, with
// the SQL caveat that NULL equals nothing (including NULL).
func Equal(a, b Value) bool {
	if a == nil || b == nil {
		return false
	}
	return Compare(a, b) == 0
}

// KeyString renders a value as a map key. Numeric values that are integral
// collapse to the same key regardless of int/float representation.
func KeyString(v Value) string {
	var buf [32]byte
	return string(appendKey(buf[:0], v))
}

func appendKey(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, "\x00N"...)
	case int64:
		return strconv.AppendInt(append(dst, 'i'), x, 10)
	case float64:
		if x == math.Trunc(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e15 {
			return strconv.AppendInt(append(dst, 'i'), int64(x), 10)
		}
		return strconv.AppendFloat(append(dst, 'f'), x, 'g', -1, 64)
	case string:
		return append(append(dst, 's'), x...)
	default:
		return append(append(dst, '?'), fmt.Sprint(v)...)
	}
}

// KeyOfValues renders a composite key for a value tuple.
func KeyOfValues(vs []Value) string {
	var buf [64]byte
	return string(AppendKeyOfValues(buf[:0], vs))
}

// AppendKeyOfValues appends KeyOfValues(vs) to dst, so a caller composing a
// larger key (or holding a stack buffer) renders it in one allocation.
func AppendKeyOfValues(dst []byte, vs []Value) []byte {
	var buf [32]byte
	for _, v := range vs {
		k := appendKey(buf[:0], v)
		dst = strconv.AppendInt(dst, int64(len(k)), 10)
		dst = append(dst, ':')
		dst = append(dst, k...)
	}
	return dst
}

// SameKey reports whether KeyOfValues(a) == KeyOfValues(b) without
// rendering either key for the types a statement binds (int64, float64,
// string, NULL); only a pair of other or mixed types is rendered.
func SameKey(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameKey(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameKey(a, b Value) bool {
	switch x := a.(type) {
	case int64:
		if y, ok := b.(int64); ok {
			return x == y
		}
	case string:
		if y, ok := b.(string); ok {
			return x == y
		}
	case float64:
		// Equal floats render alike, and every NaN renders "NaN".
		if y, ok := b.(float64); ok {
			return x == y || x != x && y != y
		}
	case nil:
		if b == nil {
			return true
		}
	}
	return KeyString(a) == KeyString(b)
}

// IsTruthy reports whether a value counts as true in a WHERE context.
func IsTruthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != ""
	default:
		return false
	}
}

// ToFloat converts a numeric value to float64. ok is false for NULL and
// non-numeric strings.
func ToFloat(v Value) (f float64, ok bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// Like implements SQL LIKE matching: % matches any run, _ matches one byte,
// backslash escapes. Matching is case-insensitive, as in MySQL's default
// collation.
func Like(pattern, s string) bool {
	return likeRec(strings.ToLower(pattern), strings.ToLower(s))
}

func likeRec(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(p, s[i:]) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		case '\\':
			if len(p) >= 2 {
				if len(s) == 0 || s[0] != p[1] {
					return false
				}
				p, s = p[2:], s[1:]
				continue
			}
			if len(s) == 0 || s[0] != '\\' {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}
