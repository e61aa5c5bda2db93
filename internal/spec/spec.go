// Package spec reads and writes the compact textual specs that name every
// part of a run: graphs, speeds, workloads, switch policies, environments,
// scenarios and runtimes. A spec is one or more components joined with
// "+"; a component is a kind followed by its arguments, either positional
// (kind:A:B) or key=value (kind:k=v,...).
//
// A Reader holds one component's arguments. Its reads return no errors:
// the first failure — a missing, malformed, unknown or duplicate argument,
// or a rule the parser checks — is kept and every later one dropped, so a
// parser reads all of its arguments, checks what it must and calls Err
// once. Every failure has one shape,
//
//	<sentinel>: "<component>": <reason>
//
// where the sentinel is the parser's own, so callers match it with
// errors.Is.
package spec

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Reader reads the arguments of one spec component.
type Reader struct {
	sentinel error
	text     string // the component, quoted in errors
	kind     string
	args     string // a keyed component's arguments, split on first use
	split    bool
	pos      []string // positional arguments
	npos     int      // positional arguments the parser reads
	keys     []keyArg // key=value arguments, in input order
	asked    []string // keys the parser reads, in the order it asks
	err      error
}

type keyArg struct {
	key, val string
	read     bool
}

// New returns a Reader for a component whose kind and positional arguments
// the caller has split off itself.
func New(sentinel error, text, kind string, args []string) *Reader {
	return &Reader{sentinel: sentinel, text: text, kind: kind, pos: args, split: true}
}

// Positional returns a Reader for a component of the form kind:A:B:...,
// where every ':' starts an argument ("kind:" has one, empty).
func Positional(sentinel error, text string) *Reader {
	fields := strings.Split(text, ":")
	return New(sentinel, text, fields[0], fields[1:])
}

// Keyed returns a Reader for a component of the form kind:k=v,..., whose
// arguments are separated by ','. Bare values before the first key=value
// argument are positional (kind:A,k=v).
func Keyed(sentinel error, text string) *Reader {
	kind, args, _ := strings.Cut(text, ":")
	return &Reader{sentinel: sentinel, text: text, kind: kind, args: args}
}

// splitKeyed splits a keyed component's arguments on the first read, so a
// parser that rejects the kind reports the kind, not its arguments.
func (r *Reader) splitKeyed() {
	if r.split {
		return
	}
	r.split = true
	if r.args == "" {
		return
	}
	for _, f := range strings.Split(r.args, ",") {
		k, v, ok := strings.Cut(f, "=")
		switch {
		case !ok && len(r.keys) == 0:
			r.pos = append(r.pos, f)
		case !ok || k == "" || v == "":
			r.Fail("argument %q is not key=value", f)
		case slices.ContainsFunc(r.keys, func(a keyArg) bool { return a.key == k }):
			r.Fail("duplicate key %q", k)
		default:
			r.keys = append(r.keys, keyArg{key: k, val: v})
		}
	}
}

// Kind returns the component's kind.
func (r *Reader) Kind() string { return r.kind }

// Len returns the number of positional arguments.
func (r *Reader) Len() int {
	r.splitKeyed()
	return len(r.pos)
}

// Int reads positional argument i (1 is the first after the kind) as an
// integer.
func (r *Reader) Int(i int) int {
	s := r.arg(i)
	v, err := strconv.Atoi(s)
	if err != nil {
		r.Fail("argument %d (%q): not an integer", i, s)
		return 0
	}
	return v
}

// OptInt reads positional argument i like Int, or returns def when the
// component has fewer arguments.
func (r *Reader) OptInt(i, def int) int {
	if i > r.Len() {
		return def
	}
	return r.Int(i)
}

// Float reads positional argument i as a finite number.
func (r *Reader) Float(i int) float64 {
	s := r.arg(i)
	v, ok := finite(s)
	if !ok {
		r.Fail("argument %d (%q): not a finite number", i, s)
	}
	return v
}

// arg returns positional argument i and notes that the parser takes it.
func (r *Reader) arg(i int) string {
	r.splitKeyed()
	r.npos = max(r.npos, i)
	if i > len(r.pos) {
		r.Fail("missing argument %d", i)
		return ""
	}
	return r.pos[i-1]
}

// Has reports whether the component sets key.
func (r *Reader) Has(key string) bool {
	_, ok := r.lookup(key)
	return ok
}

// Require fails unless the component sets every named key.
func (r *Reader) Require(keys ...string) {
	for _, k := range keys {
		if !r.Has(k) {
			r.Fail("missing required key %q", k)
		}
	}
}

// KeyInt reads key as an integer, or returns def when the component does
// not set it.
func (r *Reader) KeyInt(key string, def int) int {
	s, ok := r.lookup(key)
	if !ok {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		r.Fail("%s=%q: not an integer", key, s)
		return 0
	}
	return v
}

// KeyFloat reads key as a finite number, or returns def when the component
// does not set it.
func (r *Reader) KeyFloat(key string, def float64) float64 {
	s, ok := r.lookup(key)
	if !ok {
		return def
	}
	v, ok := finite(s)
	if !ok {
		r.Fail("%s=%q: not a finite number", key, s)
	}
	return v
}

// Sel reads the node selection key sel, one of fast, slow and random (the
// modes of internal/nodeset), or returns def when the component does not
// set it.
func (r *Reader) Sel(def string) string {
	s, ok := r.lookup("sel")
	switch {
	case !ok:
		return def
	case s == "fast" || s == "slow" || s == "random":
		return s
	}
	r.Fail("sel=%q (fast|slow|random)", s)
	return def
}

// lookup returns the value of key and whether the component sets it, and
// notes that the parser takes key.
func (r *Reader) lookup(key string) (string, bool) {
	r.splitKeyed()
	if !slices.Contains(r.asked, key) {
		r.asked = append(r.asked, key)
	}
	for i := range r.keys {
		if r.keys[i].key == key {
			r.keys[i].read = true
			return r.keys[i].val, true
		}
	}
	return "", false
}

// Fail records why the component is invalid, unless an earlier failure was
// recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %q: %s", r.sentinel, r.text, fmt.Sprintf(format, args...))
	}
}

// Check calls Fail unless ok.
func (r *Reader) Check(ok bool, format string, args ...any) {
	if !ok {
		r.Fail(format, args...)
	}
}

// Err returns the first failure, counting as failures a positional
// argument past the last one the parser read and a key it never asked
// for. Call it once, after every read and check.
func (r *Reader) Err() error {
	r.splitKeyed()
	if r.npos < len(r.pos) {
		r.Fail("unexpected argument %q", r.pos[r.npos])
	}
	for _, a := range r.keys {
		if !a.read {
			r.Fail("unknown key %q (valid: %s)", a.key, strings.Join(r.asked, ", "))
		}
	}
	return r.err
}

// finite parses s as a float that is neither NaN nor infinite.
func finite(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	return v, true
}

// Split parses each "+"-joined component of s with parse, which gets the
// component and its position; callers salt the component's seed with the
// position so composed parts draw independent streams. With wrapped set,
// a "compose(...)" around the whole list is accepted too.
func Split[T any](sentinel error, s string, wrapped bool, parse func(part string, i int) (T, error)) ([]T, error) {
	if inner, ok := strings.CutPrefix(s, "compose("); ok && wrapped {
		body, ok := strings.CutSuffix(inner, ")")
		if !ok || body == "" {
			return nil, fmt.Errorf("%w: %q: unterminated or empty compose(...)", sentinel, s)
		}
		s = body
	}
	parts := strings.Split(s, "+")
	out := make([]T, 0, len(parts))
	for i, part := range parts {
		v, err := parse(part, i)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Name renders the canonical positional form kind:A:B:... of a component.
func Name(kind string, args ...any) string {
	var b strings.Builder
	b.WriteString(kind)
	for _, a := range args {
		fmt.Fprintf(&b, ":%v", a)
	}
	return b.String()
}

// Builder renders the canonical key=value form kind:k=v,... of a
// component.
type Builder struct {
	b    strings.Builder
	args int
}

// Kind starts the component with its kind.
func (s *Builder) Kind(kind string) { s.b.WriteString(kind) }

// Add appends one key=value argument.
func (s *Builder) Add(key string, val any) {
	sep := ','
	if s.args == 0 {
		sep = ':'
	}
	s.args++
	fmt.Fprintf(&s.b, "%c%s=%v", sep, key, val)
}

// Sel appends the node selection unless it is the component's default.
func (s *Builder) Sel(sel, def string) {
	if sel != "" && sel != def {
		s.Add("sel", sel)
	}
}

// String returns the rendered component.
func (s *Builder) String() string { return s.b.String() }
