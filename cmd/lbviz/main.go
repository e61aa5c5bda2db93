// Command lbviz renders the paper's torus load-field visualizations
// (Figures 9, 10 and 11) as PNG frames, plus ASCII previews on stdout.
//
// Usage:
//
//	lbviz [-side 100] [-frames 50,100,110,120,140] [-out frames/]
//	      [-scheme sos] [-avg 1000] [-seed 1] [-shading adaptive]
//	      [-switch 0] [-ascii]
//
// Each requested frame is written to OUT/frame_NNNN.png (and .pgm). With
// -switch R the process switches to FOS at round R, reproducing the
// Figure 11 smoothing sequence.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"diffusionlb"
	"diffusionlb/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lbviz:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lbviz", flag.ContinueOnError)
	var (
		side     = fs.Int("side", 100, "torus side length")
		frames   = fs.String("frames", "50,100,110,120,140", "comma-separated rounds to render")
		outDir   = fs.String("out", "frames", "output directory")
		scheme   = fs.String("scheme", "sos", "fos | sos")
		avg      = fs.Int64("avg", 1000, "average initial load, placed on node 0")
		seed     = fs.Uint64("seed", 1, "rounding seed")
		shading  = fs.String("shading", "adaptive", "adaptive | threshold")
		limit    = fs.Float64("limit", 10, "token distance mapped to black (threshold shading)")
		switchAt = fs.Int("switch", 0, "switch SOS->FOS at this round (0 = never)")
		ascii    = fs.Bool("ascii", true, "print ASCII previews to stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	frameRounds, err := parseFrames(*frames)
	if err != nil {
		return fmt.Errorf("-frames: %w", err)
	}
	var mode diffusionlb.Shading
	switch *shading {
	case "adaptive":
		mode = diffusionlb.ShadeAdaptive
	case "threshold":
		mode = diffusionlb.ShadeThreshold
	default:
		return fmt.Errorf("-shading: unknown shading %q (adaptive|threshold)", *shading)
	}
	kind, err := sim.ParseScheme(*scheme)
	if err != nil {
		return fmt.Errorf("-scheme: %w", err)
	}
	if *switchAt < 0 {
		return fmt.Errorf("-switch: negative round %d (0 = never)", *switchAt)
	}
	if *side < 2 {
		return fmt.Errorf("-side: %d, want at least 2", *side)
	}
	// The run starts with avg·side² tokens on node 0. Dividing by side twice
	// finds the largest avg for which that fits in int64 without forming
	// side², which can wrap itself.
	if maxAvg := math.MaxInt64 / int64(*side) / int64(*side); *avg < 0 || *avg > maxAvg {
		return fmt.Errorf("-avg: %d outside [0, %d], where avg·side² fits in int64", *avg, maxAvg)
	}

	g, err := diffusionlb.Torus2D(*side, *side)
	if err != nil {
		return err
	}
	sys, err := diffusionlb.NewSystem(g, nil)
	if err != nil {
		return err
	}
	x0, err := diffusionlb.PointLoad(g.NumNodes(), *avg*int64(g.NumNodes()), 0)
	if err != nil {
		return err
	}
	proc, err := sys.NewDiscrete(kind, diffusionlb.RandomizedRounder{}, *seed, x0)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	last := frameRounds[len(frameRounds)-1]
	want := make(map[int]bool, len(frameRounds))
	for _, r := range frameRounds {
		want[r] = true
	}
	fmt.Printf("%s λ=%.8f β=%.8f — rendering %d frames up to round %d\n",
		g.Name(), sys.Lambda(), sys.Beta(), len(frameRounds), last)
	for round := 1; round <= last; round++ {
		proc.Step()
		if *switchAt > 0 && round == *switchAt {
			proc.SetKind(diffusionlb.FOS)
			fmt.Printf("round %d: switched to FOS\n", round)
		}
		if !want[round] {
			continue
		}
		frame, err := diffusionlb.RenderInt(proc.LoadsInt(), *side, *side, mode, *limit)
		if err != nil {
			return err
		}
		name := filepath.Join(*outDir, fmt.Sprintf("frame_%04d", round))
		if err := writePNG(name+".png", frame); err != nil {
			return err
		}
		if err := writePGM(name+".pgm", frame); err != nil {
			return err
		}
		fmt.Printf("round %4d: mean gray %.1f -> %s.png\n", round, frame.MeanGray(), name)
		if *ascii {
			fmt.Println(frame.ASCII(72))
		}
	}
	return nil
}

func parseFrames(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	prev := 0
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= prev {
			return nil, fmt.Errorf("want increasing positive rounds, got %q", s)
		}
		out = append(out, v)
		prev = v
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no frames requested")
	}
	return out, nil
}

func writePNG(path string, f *diffusionlb.Frame) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := f.WritePNG(file); err != nil {
		return err
	}
	return file.Close()
}

func writePGM(path string, f *diffusionlb.Frame) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := f.WritePGM(file); err != nil {
		return err
	}
	return file.Close()
}
