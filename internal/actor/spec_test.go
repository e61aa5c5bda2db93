package actor_test

import (
	"errors"
	"testing"

	"diffusionlb/internal/actor"
)

func TestFromSpec(t *testing.T) {
	cases := []struct {
		spec   string
		want   actor.Options
		wantOK bool
	}{
		{"actor:1", actor.Options{Actors: 1}, true},
		{"actor:4", actor.Options{Actors: 4}, true},
		{"actor:4,stale=0", actor.Options{Actors: 4}, true},
		{"actor:7,stale=3", actor.Options{Actors: 7, Stale: 3}, true},
		{"", actor.Options{}, false},
		{"actor", actor.Options{}, false},
		{"actor:", actor.Options{}, false},
		{"actor:0", actor.Options{}, false},
		{"actor:-2", actor.Options{}, false},
		{"actor:4,stale=-1", actor.Options{}, false},
		{"actor:4,stale=", actor.Options{}, false},
		{"actor:4,fresh=1", actor.Options{}, false},
		{"actor:4,stale=2,stale=3", actor.Options{}, false},
		{"shard:4", actor.Options{}, false},
		{"actor:x", actor.Options{}, false},
	}
	for _, tc := range cases {
		got, err := actor.FromSpec(tc.spec)
		if tc.wantOK {
			if err != nil {
				t.Errorf("FromSpec(%q): unexpected error %v", tc.spec, err)
				continue
			}
			if got != tc.want {
				t.Errorf("FromSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
			}
		} else if !errors.Is(err, actor.ErrBadSpec) {
			t.Errorf("FromSpec(%q) = %+v, %v, want an actor.ErrBadSpec error", tc.spec, got, err)
		}
	}
}

func TestOptionsName(t *testing.T) {
	cases := []struct {
		opts actor.Options
		want string
	}{
		{actor.Options{Actors: 1}, "actor:1"},
		{actor.Options{Actors: 4}, "actor:4"},
		{actor.Options{Actors: 7, Stale: 3}, "actor:7,stale=3"},
	}
	for _, tc := range cases {
		if got := tc.opts.Name(); got != tc.want {
			t.Errorf("%+v.Name() = %q, want %q", tc.opts, got, tc.want)
		}
	}
}

// FuzzFromSpec pins the parser round trip: any spec the parser accepts
// must render back (via Name) to a spec that parses to the same options —
// the property the specroundtrip analyzer requires of *FromSpec parsers.
func FuzzFromSpec(f *testing.F) {
	for _, seed := range []string{"actor:1", "actor:4,stale=2", "actor:", "actor:9999,stale=0", "x", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		opts, err := actor.FromSpec(spec)
		if err != nil {
			if !errors.Is(err, actor.ErrBadSpec) {
				t.Fatalf("FromSpec(%q) error %v is not an actor.ErrBadSpec", spec, err)
			}
			return
		}
		if opts.Actors < 1 || opts.Stale < 0 {
			t.Fatalf("FromSpec(%q) accepted invalid options %+v", spec, opts)
		}
		back, err := actor.FromSpec(opts.Name())
		if err != nil {
			t.Fatalf("Name() output %q does not re-parse: %v", opts.Name(), err)
		}
		if back != opts {
			t.Fatalf("round trip %q -> %+v -> %q -> %+v", spec, opts, opts.Name(), back)
		}
	})
}
