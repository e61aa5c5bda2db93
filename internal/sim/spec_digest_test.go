package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strings"
	"testing"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/scenario"
	"diffusionlb/internal/workload"
)

// TestSpecDigests pins what each of the seven spec grammars accepts, so a
// change to how the parsers read their arguments cannot move any input
// across the accept/reject line unnoticed. Every spec of one corpus (the
// seed corpora of the seven fuzz targets plus a generated corpus, see
// specDigestCorpus) goes through every parser; per grammar, one FNV-64a
// digest covers, in corpus order, whether each spec is accepted, the Name()
// of each accepted one, and which of the family's sentinels each rejection
// matches under errors.Is. Error wording is deliberately not hashed.
//
// Graph lists its generator sentinels only: its parse errors carry no
// generator sentinel, whatever else they wrap. Speeds lists ErrBadSpec and
// ErrBadSpeeds, which its value-range errors match.
func TestSpecDigests(t *testing.T) {
	type parsed struct {
		name string // Name() of the accepted value; "" for a nil value
		err  error
	}
	named := func(v interface{ Name() string }, isNil bool, err error) parsed {
		if err != nil {
			return parsed{err: err}
		}
		if isNil {
			return parsed{}
		}
		return parsed{name: v.Name()}
	}
	grammars := []struct {
		name      string
		parse     func(string) parsed
		sentinels []error
		want      string
	}{
		{"graph", func(s string) parsed {
			g, err := graph.FromSpec(s, 1)
			return named(g, g == nil, err)
		}, []error{graph.ErrBadParameter, graph.ErrTooLarge}, "cb778007a8aa3c3b"},
		{"speeds", func(s string) parsed {
			sp, err := hetero.SpeedsFromSpec(s, 32, 1)
			return named(sp, sp == nil, err)
		}, []error{hetero.ErrBadSpec, hetero.ErrBadSpeeds}, "79d25abd3a1abfd0"},
		{"workload", func(s string) parsed {
			m, err := workload.FromSpec(s, 16, 1)
			return named(m, m == nil, err)
		}, []error{workload.ErrBadSpec}, "bcd21b429be17555"},
		{"policy", func(s string) parsed {
			p, err := core.PolicyFromSpec(s)
			return named(p, p == nil, err)
		}, []error{core.ErrBadPolicySpec}, "3aaf7289ecc83c35"},
		{"env", func(s string) parsed {
			d, err := envdyn.FromSpec(s, 32, 1)
			return named(d, d == nil, err)
		}, []error{envdyn.ErrBadSpec}, "415ff90f1b7f47e8"},
		{"scenario", func(s string) parsed {
			sc, err := scenario.FromSpec(s, 32, 1)
			return named(sc, sc == nil, err)
		}, []error{scenario.ErrBadSpec}, "cfb2a292ad53d169"},
		{"runtime", func(s string) parsed {
			o, err := actor.FromSpec(s)
			return named(o, false, err)
		}, []error{actor.ErrBadSpec}, "282881e03eb23047"},
	}
	corpus := specDigestCorpus()
	for _, g := range grammars {
		h := fnv.New64a()
		accepted := 0
		for _, s := range corpus {
			p := g.parse(s)
			fmt.Fprintf(h, "%q ", s)
			if p.err == nil {
				accepted++
				fmt.Fprintf(h, "ok %q\n", p.name)
				continue
			}
			match := 0
			for i, sentinel := range g.sentinels {
				if errors.Is(p.err, sentinel) {
					match = i + 1
					break
				}
			}
			fmt.Fprintf(h, "err %d\n", match)
		}
		got := fmt.Sprintf("%016x", h.Sum64())
		t.Logf("%s: %d of %d specs accepted", g.name, accepted, len(corpus))
		if got != g.want {
			t.Errorf("%s digest = %s, want %s", g.name, got, g.want)
		}
	}
}

// specDigestSeeds are the seed corpora of the seven fuzz targets.
var specDigestSeeds = []string{
	// graph.FuzzFromSpec
	"torus2d:8x8", "torus:4x4x4", "hypercube:6", "regular:12:4",
	"rgg:12", "cycle:9", "path:9", "complete:8", "grid:4x5", "star:7",
	"", "x", "torus2d:8", "regular:12", "cycle:-3", "torus2d:axb",
	// hetero.FuzzSpeedsFromSpec
	"twoclass:0.25:4", "range:8", "powerlaw:2.2:16", "single:3:5",
	"", "x", ":::", "twoclass:NaN:4", "single:-1:2", "range:1e309",
	// core.FuzzPolicyFromSpec
	"at:2500", "local:16", "stall:50:0.01", "adaptive:16:64:100",
	"adaptive:16:64", "never", "", "x", ":::", "at:-5", "local:NaN",
	"adaptive:64:16", "stall:0:0.1",
	// workload.FuzzFromSpec
	"burst:100:50000", "burst:100:50000:3", "hotspot:10:500",
	"poisson:0.5:100", "churn:5:200:200:400", "adversary:64:4",
	"burst:100:50000+poisson:0.5", "", "x", ":::", "burst:-1:5",
	"poisson:NaN", "adversary:1:0", "burst:1:1:99",
	// envdyn.FuzzFromSpec
	"throttle:at=100,frac=0.25,factor=0.25",
	"boost:every=50,dur=10,frac=0.5,factor=2",
	"drain:at=10,frac=0.125,ramp=4,restore=20,rramp=2",
	"jitter:sigma=0.1,cap=2",
	"compose(throttle:at=5,frac=1,factor=0.5+jitter:sigma=0.05)",
	"throttle:at=5,frac=0.5", "x", "", ":::", "throttle:at=,frac=1",
	// scenario.FuzzFromSpec
	"drain:at=10,frac=0.125",
	"drain:at=10,frac=0.125,ramp=8,restore=30,rramp=4",
	"correlated:at=20,frac=0.25,factor=0.25,load=50000",
	"cascade:at=5,waves=3,gap=10,frac=0.1,factor=0.5,load=600,dur=5,jitter=4",
	"compose(drain:at=10,frac=0.25+correlated:at=30,frac=0.1,factor=0.5,load=900)",
	"drain:at=5,frac=0.5,sel=warp", "x", "", ":::", "drain:at=,frac=1",
	// actor.FuzzFromSpec
	"actor:1", "actor:4,stale=2", "actor:", "actor:9999,stale=0", "x", "",
}

// specDigestFamilies lists every kind of the seven grammars, one family per
// grammar (graph first), plus near misses. A kind with keys takes
// key=value arguments, the first req of them required; one without takes
// about arity ':'-separated arguments.
var specDigestFamilies = [][]struct {
	kind  string
	arity int
	keys  []string
	req   int
}{
	{{"torus2d", 2, nil, 0}, {"torus", 3, nil, 0}, {"hypercube", 1, nil, 0}, {"regular", 2, nil, 0},
		{"rgg", 1, nil, 0}, {"cycle", 1, nil, 0}, {"path", 1, nil, 0}, {"complete", 1, nil, 0},
		{"grid", 2, nil, 0}, {"star", 1, nil, 0}, {"Torus2D", 2, nil, 0}},
	{{"twoclass", 2, nil, 0}, {"range", 1, nil, 0}, {"powerlaw", 2, nil, 0}, {"single", 2, nil, 0}},
	{{"burst", 2, nil, 0}, {"hotspot", 2, nil, 0}, {"poisson", 1, nil, 0}, {"churn", 3, nil, 0},
		{"adversary", 1, nil, 0}},
	{{"at", 1, nil, 0}, {"local", 1, nil, 0}, {"stall", 2, nil, 0}, {"adaptive", 2, nil, 0},
		{"never", 0, nil, 0}},
	{{"throttle", 0, []string{"frac", "factor", "at", "until", "every", "dur", "sel"}, 2},
		{"boost", 0, []string{"frac", "factor", "at", "until", "every", "dur", "sel"}, 2},
		{"drain", 0, []string{"at", "frac", "ramp", "restore", "rramp", "sel"}, 2},
		{"jitter", 0, []string{"sigma", "cap", "frac", "sel"}, 1}},
	{{"drain", 0, []string{"at", "frac", "ramp", "restore", "rramp", "sel"}, 2},
		{"correlated", 0, []string{"at", "frac", "factor", "load", "until", "sel"}, 4},
		{"cascade", 0, []string{"at", "waves", "gap", "frac", "factor", "jitter", "load", "dur", "sel"}, 5}},
	{{"actor", 1, []string{"stale"}, 0}},
	{{"", 1, nil, 0}, {"warp", 0, []string{"x"}, 1}, {"compose", 1, nil, 0}},
}

// Argument pools: valid values, then malformed or out-of-range ones drawn
// one time in five. Graph numbers stay at or below 12 so that no generated
// graph is large (a torus takes up to four of them).
var (
	specDigestGraphNums = [2][]string{
		{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "+4", "012"},
		{"0", "-1", "-3", "", "a", "1.5", "0x3"}}
	specDigestInts = [2][]string{
		{"0", "1", "2", "3", "4", "5", "8", "10", "12", "15", "16", "40", "100", "+3", "007"},
		{"-1", "-7", "", "a", "1.5", "1e3", "0x10", "1_000",
			"9223372036854775807", "9223372036854775808", "99999999999999999999"}}
	specDigestFloats = [2][]string{
		{"0", "0.05", "0.1", "0.125", "0.25", "0.5", "0.75", "1", "1.5", "2", "4", "16", "64",
			"1e4", "0x1p-2", ".5", "5."},
		{"-0.5", "-0", "NaN", "Inf", "-Inf", "+Inf", "1e309", "", "1e-400", "abc", "10001"}}
	specDigestSels  = [2][]string{{"fast", "slow", "random"}, {"warp", "", "FAST"}}
	specDigestJunk  = []string{"boop=1", "at", "=5", "at=", "", "x", "sel"}
	specDigestGraph = []string{"x", "x", "x", "X", ":", "::", "xx", ":x"}
	specDigestSeps  = ":,=+x()"
)

// specDigestCorpus returns the seed corpora followed by 20000 specs drawn
// from a fixed-seed PCG: one to three components of kinds from
// specDigestFamilies (later components mostly from the first one's
// family), now and then wrapped in compose(...), and now and then cut
// short or given a stray separator.
func specDigestCorpus() []string {
	src := rand.NewPCG(2026, 21)
	intn := func(n int) int { return int(src.Uint64() % uint64(n)) }
	pick := func(pool []string) string { return pool[intn(len(pool))] }
	value := func(pools [2][]string) string {
		if intn(5) == 0 {
			return pick(pools[1])
		}
		return pick(pools[0])
	}
	count := func(arity int) int { return max(0, arity+[]int{-1, 0, 0, 0, 1, 1}[intn(6)]) }
	component := func(fam int) string {
		k := specDigestFamilies[fam][intn(len(specDigestFamilies[fam]))]
		var b strings.Builder
		b.WriteString(k.kind)
		switch {
		case fam == 0:
			n := count(k.arity)
			if n > 0 || intn(2) == 0 {
				b.WriteByte(':')
			}
			for i := 0; i < n; i++ {
				if i > 0 {
					b.WriteString(pick(specDigestGraph))
				}
				b.WriteString(value(specDigestGraphNums))
			}
		case k.kind == "actor":
			if intn(10) > 0 {
				b.WriteString(":" + value(specDigestInts))
			}
			if intn(2) == 0 {
				b.WriteString(",stale=" + value(specDigestInts))
			}
			if intn(8) == 0 {
				b.WriteString(pick([]string{",", ",stale", ",foo=1", ",stale=1", ":2", ",3"}))
			}
		case k.keys != nil:
			var fields []string
			for i, key := range k.keys {
				if (i < k.req && intn(10) > 0) || intn(5) < 2 {
					fields = append(fields, key+"="+specDigestValue(key, intn, value))
				}
			}
			if len(fields) > 0 && intn(16) == 0 {
				fields = append(fields, fields[intn(len(fields))])
			}
			if intn(16) == 0 {
				fields = append(fields, pick(specDigestJunk))
			}
			if intn(16) == 0 {
				fields = append(fields, value(specDigestInts))
			}
			for i := len(fields) - 1; i > 0; i-- {
				j := intn(i + 1)
				fields[i], fields[j] = fields[j], fields[i]
			}
			if len(fields) > 0 || intn(2) == 0 {
				b.WriteString(":" + strings.Join(fields, ","))
			}
		default:
			for n := count(k.arity); n > 0; n-- {
				pools := specDigestInts
				if intn(3) == 0 {
					pools = specDigestFloats
				}
				b.WriteString(":" + value(pools))
			}
		}
		return b.String()
	}
	corpus := append([]string(nil), specDigestSeeds...)
	for len(corpus) < len(specDigestSeeds)+20000 {
		fam := intn(len(specDigestFamilies))
		parts := []string{component(fam)}
		for n := []int{0, 0, 0, 0, 0, 0, 1, 1, 2}[intn(9)]; n > 0; n-- {
			if intn(5) > 0 {
				parts = append(parts, component(fam))
			} else {
				parts = append(parts, component(intn(len(specDigestFamilies))))
			}
		}
		s := strings.Join(parts, "+")
		switch intn(25) {
		case 0, 1:
			s = "compose(" + s + ")"
		case 2:
			s = pick([]string{"compose(" + s, "compose()", s + ")"})
		}
		if intn(16) == 0 && len(s) > 0 {
			i, sep := intn(len(s)), specDigestSeps[intn(len(specDigestSeps))]
			switch intn(3) {
			case 0:
				s = s[:i]
			case 1:
				s = s[:i] + string(sep) + s[i:]
			case 2:
				s = s[:i] + string(sep) + s[i+1:]
			}
		}
		corpus = append(corpus, s)
	}
	return corpus
}

// specDigestValue draws the value of one key=value argument, now and then
// from another key's pool.
func specDigestValue(key string, intn func(int) int, value func([2][]string) string) string {
	pools := [][2][]string{specDigestInts, specDigestFloats, specDigestSels}
	own := 0
	switch key {
	case "frac", "factor", "sigma", "cap":
		own = 1
	case "sel":
		own = 2
	}
	if intn(10) == 0 {
		return value(pools[intn(len(pools))])
	}
	return value(pools[own])
}
