package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"diffusionlb/internal/core"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/viz"
)

func init() {
	register(Experiment{
		ID:       "fig9",
		Artifact: "Figures 9 and 10",
		Title:    "Wavefront visualization of SOS on the 2-D torus (frames at five time steps)",
		Run:      runFig9,
	})
	register(Experiment{
		ID:       "fig11",
		Artifact: "Figure 11",
		Title:    "Post-switch smoothing: SOS plateau, then +100/+1000 FOS rounds (threshold shading)",
		Run:      runFig11,
	})
}

// vizScale picks the torus side and the frame rounds. The paper renders the
// 1000×1000 torus at steps 500/1000/1100/1200/1400 (collision ~1200); on a
// 100×100 torus the fronts collide around step 120, so frames scale by 1/10.
func vizScale(p Params) (side int, frames []int) {
	if p.Full {
		return 1000, []int{500, 1000, 1100, 1200, 1400}
	}
	return 100, []int{50, 100, 110, 120, 140}
}

func runFig9(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("fig9")
	side, frames := vizScale(p)
	sys, err := p.topology(torus(side), "")
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf("torus %dx%d, SOS, frames at rounds %v (adaptive shading: light=near average)", side, side, frames)); err != nil {
		return err
	}
	x0, err := pointLoadDiscrete(sys.Graph.NumNodes(), 1000)
	if err != nil {
		return err
	}
	proc, err := p.discrete(sys, core.SOS, x0)
	if err != nil {
		return err
	}
	frameSet := make(map[int]bool, len(frames))
	last := 0
	for _, f := range frames {
		frameSet[f] = true
		if f > last {
			last = f
		}
	}
	for round := 1; round <= last; round++ {
		proc.Step()
		if !frameSet[round] {
			continue
		}
		frame, err := viz.Render(proc.LoadsInt(), side, side, viz.Adaptive, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n--- round %d (mean gray %.1f, max−avg %.0f) ---\n%s",
			round, frame.MeanGray(), metrics.MaxMinusAvg(proc.LoadsInt()), frame.ASCII(64))
		if p.OutDir != "" {
			if err := dumpFrame(p.OutDir, fmt.Sprintf("fig9_round%04d", round), frame); err != nil {
				return err
			}
		}
	}
	// The collision discontinuity: the max local difference spikes when the
	// wavefronts collapse at the torus center (paper: every ~1200-1300
	// steps at side 1000).
	_, err = fmt.Fprintf(w, "\nwavefronts spread from the corners (v0 wraps around) and collide near round ~%d, producing the discontinuities of Figure 1\n",
		frames[len(frames)-2])
	return err
}

func runFig11(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("fig11")
	side, _ := vizScale(p)
	sosRounds, fosShort, fosLong := 300, 10, 100
	if p.Full {
		sosRounds, fosShort, fosLong = 3000, 100, 1000
	}
	sys, err := p.topology(torus(side), "")
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf("torus %dx%d: %d SOS rounds, then FOS for +%d and +%d rounds (threshold shading, black = >10 tokens from average)",
		side, side, sosRounds, fosShort, fosLong)); err != nil {
		return err
	}
	x0, err := pointLoadDiscrete(sys.Graph.NumNodes(), 1000)
	if err != nil {
		return err
	}
	proc, err := p.discrete(sys, core.SOS, x0)
	if err != nil {
		return err
	}
	core.Run(proc, sosRounds)
	report := func(label string) error {
		frame, err := viz.Render(proc.LoadsInt(), side, side, viz.Threshold, 10)
		if err != nil {
			return err
		}
		above := metrics.CountAbove(proc.LoadsInt(), 10)
		fmt.Fprintf(w, "\n--- %s: mean gray %.1f, nodes >10 above avg: %d, max−avg %.0f ---\n%s",
			label, frame.MeanGray(), above, metrics.MaxMinusAvg(proc.LoadsInt()), frame.ASCII(64))
		if p.OutDir != "" {
			return dumpFrame(p.OutDir, "fig11_"+label, frame)
		}
		return nil
	}
	if err := report(fmt.Sprintf("sos%d", sosRounds)); err != nil {
		return err
	}
	proc.SetKind(core.FOS)
	core.Run(proc, fosShort)
	if err := report(fmt.Sprintf("fos%d", fosShort)); err != nil {
		return err
	}
	core.Run(proc, fosLong-fosShort)
	if err := report(fmt.Sprintf("fos%d", fosLong)); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "\nFOS smoothing: the rendered field loses the SOS noise and the count of nodes >10 above average stays at zero (cf. Figure 11)")
	return err
}

// dumpFrame writes PNG and PGM artifacts for a frame.
func dumpFrame(dir, name string, frame *viz.Frame) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pngFile, err := os.Create(filepath.Join(dir, name+".png"))
	if err != nil {
		return err
	}
	defer pngFile.Close()
	if err := frame.WritePNG(pngFile); err != nil {
		return err
	}
	pgmFile, err := os.Create(filepath.Join(dir, name+".pgm"))
	if err != nil {
		return err
	}
	defer pgmFile.Close()
	return frame.WritePGM(pgmFile)
}
