package spec

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

var errTest = errors.New("test: invalid spec")

// TestPositional reads kind:A:B components: every failure wraps the
// sentinel, names the component and keeps the first reason.
func TestPositional(t *testing.T) {
	cases := []struct {
		text string
		want string // rendered reads, or the error
	}{
		{"k:3:0.5", "k 3 0.5 7"},
		{"k:3:0.5:9", "k 3 0.5 9"},
		{"k:+3:5e-1", "k 3 0.5 7"},
		{"k:3", `test: invalid spec: "k:3": missing argument 2`},
		{"k:x:y", `test: invalid spec: "k:x:y": argument 1 ("x"): not an integer`},
		{"k:1:NaN", `test: invalid spec: "k:1:NaN": argument 2 ("NaN"): not a finite number`},
		{"k:1:1e309", `test: invalid spec: "k:1:1e309": argument 2 ("1e309"): not a finite number`},
		{"k:1:2:3:4", `test: invalid spec: "k:1:2:3:4": unexpected argument "4"`},
		{"k:1:2:", `test: invalid spec: "k:1:2:": argument 3 (""): not an integer`},
		{"k:0:2", `test: invalid spec: "k:0:2": a must be >= 1`},
	}
	for _, tc := range cases {
		r := Positional(errTest, tc.text)
		a, b, c := r.Int(1), r.Float(2), r.OptInt(3, 7)
		r.Check(a >= 1, "a must be >= 1")
		got := fmt.Sprint(r.Kind(), " ", a, " ", b, " ", c)
		if err := r.Err(); err != nil {
			got = err.Error()
			if !errors.Is(err, errTest) {
				t.Errorf("%q: err %v does not wrap the sentinel", tc.text, err)
			}
		}
		if got != tc.want {
			t.Errorf("%q: got %q, want %q", tc.text, got, tc.want)
		}
	}
}

// TestKeyed reads kind:k=v,... components, including the runtime's
// leading positional argument.
func TestKeyed(t *testing.T) {
	cases := []struct {
		text string
		want string // rendered reads, or the error
	}{
		{"k:5,at=2,frac=0.5,sel=slow", "k 5 2 0.5 slow"},
		{"k:5,frac=0.5", "k 5 0 0.5 fast"},
		{"k:5", `test: invalid spec: "k:5": missing required key "frac"`},
		{"k:5,frac=0.5,frac=1", `test: invalid spec: "k:5,frac=0.5,frac=1": duplicate key "frac"`},
		{"k:5,frac=0.5,6", `test: invalid spec: "k:5,frac=0.5,6": argument "6" is not key=value`},
		{"k:5,frac=", `test: invalid spec: "k:5,frac=": argument "frac=" is not key=value`},
		{"k:5,=1,frac=1", `test: invalid spec: "k:5,=1,frac=1": argument "=1" is not key=value`},
		{"k:5,6,frac=1", `test: invalid spec: "k:5,6,frac=1": unexpected argument "6"`},
		{"k:5,frac=1,boop=2", `test: invalid spec: "k:5,frac=1,boop=2": unknown key "boop" (valid: frac, at, sel)`},
		{"k:5,frac=1,at=x", `test: invalid spec: "k:5,frac=1,at=x": at="x": not an integer`},
		{"k:5,frac=Inf", `test: invalid spec: "k:5,frac=Inf": frac="Inf": not a finite number`},
		{"k:5,frac=1,sel=warp", `test: invalid spec: "k:5,frac=1,sel=warp": sel="warp" (fast|slow|random)`},
		{"k:x,frac=1", `test: invalid spec: "k:x,frac=1": argument 1 ("x"): not an integer`},
	}
	for _, tc := range cases {
		r := Keyed(errTest, tc.text)
		r.Require("frac")
		n, at, frac, sel := r.Int(1), r.KeyInt("at", 0), r.KeyFloat("frac", 0), r.Sel("fast")
		got := fmt.Sprint(r.Kind(), " ", n, " ", at, " ", frac, " ", sel)
		if err := r.Err(); err != nil {
			got = err.Error()
			if !errors.Is(err, errTest) {
				t.Errorf("%q: err %v does not wrap the sentinel", tc.text, err)
			}
		}
		if got != tc.want {
			t.Errorf("%q: got %q, want %q", tc.text, got, tc.want)
		}
	}
}

// TestKindFailureWins: a parser that rejects the kind before reading
// reports the kind, not the malformed arguments behind it.
func TestKindFailureWins(t *testing.T) {
	r := Keyed(errTest, "warp:a,b=,b=1,b=2")
	r.Fail("unknown kind (k)")
	if err := r.Err(); err == nil || !strings.HasSuffix(err.Error(), ": unknown kind (k)") {
		t.Errorf("err = %v, want the unknown kind", err)
	}
}

// TestSplit: "+" joins components, each parsed with its position;
// compose(...) is accepted only where wrapped is set.
func TestSplit(t *testing.T) {
	parse := func(part string, i int) (string, error) {
		if part == "bad" {
			return "", fmt.Errorf("%w: %q: bad part", errTest, part)
		}
		return fmt.Sprint(i, "=", part), nil
	}
	cases := []struct {
		s       string
		wrapped bool
		want    string
	}{
		{"a", false, "[0=a]"},
		{"a+b+c", true, "[0=a 1=b 2=c]"},
		{"compose(a+b)", true, "[0=a 1=b]"},
		{"compose(a+b)", false, "[0=compose(a 1=b)]"},
		{"compose(a+b", true, `test: invalid spec: "compose(a+b": unterminated or empty compose(...)`},
		{"compose()", true, `test: invalid spec: "compose()": unterminated or empty compose(...)`},
		{"a+bad+c", true, `test: invalid spec: "bad": bad part`},
	}
	for _, tc := range cases {
		parts, err := Split(errTest, tc.s, tc.wrapped, parse)
		got := fmt.Sprint(parts)
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("Split(%q, %v) = %s, want %s", tc.s, tc.wrapped, got, tc.want)
		}
	}
}

// TestNames renders both canonical forms.
func TestNames(t *testing.T) {
	if got := Name("burst", 10, int64(500), 0.25); got != "burst:10:500:0.25" {
		t.Errorf("Name = %q", got)
	}
	if got := Name("never"); got != "never" {
		t.Errorf("Name = %q", got)
	}
	var b Builder
	b.Kind("drain")
	b.Add("at", 5)
	b.Add("frac", 0.125)
	b.Sel("fast", "fast")
	b.Sel("random", "fast")
	if got := b.String(); got != "drain:at=5,frac=0.125,sel=random" {
		t.Errorf("Builder = %q", got)
	}
}
