package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseFrames(t *testing.T) {
	got, err := parseFrames("5, 10,20")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 5 || got[2] != 20 {
		t.Errorf("parseFrames = %v", got)
	}
	for _, bad := range []string{"", "0", "10,5", "a,b", "3,3"} {
		if _, err := parseFrames(bad); err == nil {
			t.Errorf("parseFrames(%q) should fail", bad)
		}
	}
}

func TestRunRendersFrames(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-side", "16", "-frames", "5,10", "-out", dir,
		"-ascii=false", "-switch", "8",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"frame_0005.png", "frame_0010.png", "frame_0005.pgm"} {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil || info.Size() == 0 {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}
}

func TestRunValidation(t *testing.T) {
	// A bad flag is rejected before anything runs, with the flag named. On
	// an 8×8 torus avg·64 fits in int64 up to avg = 2^57−1; 2^58+1 would
	// wrap to a 64-token run.
	for _, args := range [][]string{
		{"-frames", "10,5"},
		{"-shading", "psychedelic"},
		{"-scheme", "xyz"},
		{"-switch", "-5"},
		{"-side", "0"},
		{"-side", "1"},
		{"-avg", "-5", "-side", "8"},
		{"-avg", "144115188075855872", "-side", "8"},
		{"-avg", "288230376151711745", "-side", "8"},
	} {
		err := run(append(args, "-out", t.TempDir()))
		if err == nil || !strings.HasPrefix(err.Error(), args[0]+":") {
			t.Errorf("run(%v) = %v, want an error naming %s", args, err, args[0])
		}
	}
	// The largest avg that fits still runs.
	if err := run([]string{"-side", "8", "-frames", "1", "-out", t.TempDir(), "-ascii=false", "-avg", "144115188075855871"}); err != nil {
		t.Errorf("-avg 2^57-1 on an 8×8 torus: %v", err)
	}
	// The scheme is read in any case.
	for _, scheme := range []string{"FOS", "Sos"} {
		if err := run([]string{"-side", "8", "-frames", "2", "-out", t.TempDir(), "-ascii=false", "-scheme", scheme}); err != nil {
			t.Errorf("-scheme %s: %v", scheme, err)
		}
	}
}
