// Package viz renders torus load fields the way the paper's Figures 9–11
// do: one pixel per node, shaded by how far the node's load is from the
// average. Two shading modes are provided:
//
//   - Adaptive (Figures 9/10): light = close to the average load, dark =
//     close to the current extreme (max or min), normalized per frame.
//   - Threshold (Figure 11): white = at the average, black = more than a
//     fixed number of tokens away, linear in between.
//
// Frames can be written as PNG (stdlib image/png), PGM (plain-text P2, for
// artifact diffing) or rendered as coarse ASCII for terminal inspection.
package viz

import (
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"strings"
)

// ErrBadFrame is returned for mismatched dimensions.
var ErrBadFrame = errors.New("viz: bad frame dimensions")

// Shading selects how loads map to gray levels.
type Shading int

const (
	// Adaptive normalizes against the frame's own extremes (Figures 9/10).
	Adaptive Shading = iota + 1
	// Threshold saturates at a fixed distance from the average (Figure 11).
	Threshold
)

// Frame is a rendered grayscale view of a w×h load field.
type Frame struct {
	W, H int
	// Gray holds one byte per node, 255 = white (balanced), 0 = black.
	Gray []uint8
}

// Render shades the load field x (row-major, id = y*w + x) of a w×h torus.
// For Threshold shading, limit is the token distance mapped to black; it is
// ignored for Adaptive.
func Render[T int64 | float64](x []T, w, h int, mode Shading, limit float64) (*Frame, error) {
	if w <= 0 || h <= 0 || len(x) != w*h {
		return nil, fmt.Errorf("%w: %d loads for %dx%d", ErrBadFrame, len(x), w, h)
	}
	var sum float64
	for _, v := range x {
		sum += float64(v)
	}
	avg := sum / float64(len(x))

	f := &Frame{W: w, H: h, Gray: make([]uint8, w*h)}
	switch mode {
	case Adaptive:
		// Scale by the largest deviation present in this frame.
		var worst float64
		for _, v := range x {
			if d := math.Abs(float64(v) - avg); d > worst {
				worst = d
			}
		}
		if worst == 0 {
			for i := range f.Gray {
				f.Gray[i] = 255
			}
			return f, nil
		}
		for i, v := range x {
			d := math.Abs(float64(v)-avg) / worst
			f.Gray[i] = gray(d)
		}
	case Threshold:
		if limit <= 0 {
			limit = 10 // the paper's Figure 11 uses 10 tokens
		}
		for i, v := range x {
			d := math.Abs(float64(v)-avg) / limit
			if d > 1 {
				d = 1
			}
			f.Gray[i] = gray(d)
		}
	default:
		return nil, fmt.Errorf("viz: unknown shading mode %d", mode)
	}
	return f, nil
}

// gray maps a normalized deviation d ∈ [0, 1] to a gray level
// (0 deviation = white 255, full deviation = black 0).
func gray(d float64) uint8 {
	v := float64(255 * (1 - d)) // no fused multiply-add with v + 0.5 on arm64 (make fma-check)
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// WritePNG encodes the frame as a grayscale PNG.
func (f *Frame) WritePNG(w io.Writer) error {
	img := image.NewGray(image.Rect(0, 0, f.W, f.H))
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			img.SetGray(x, y, color.Gray{Y: f.Gray[y*f.W+x]})
		}
	}
	return png.Encode(w, img)
}

// WritePGM encodes the frame as a plain-text PGM (P2), convenient for
// line-based diffing of rendered artifacts.
func (f *Frame) WritePGM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P2\n%d %d\n255\n", f.W, f.H); err != nil {
		return err
	}
	var b strings.Builder
	for y := 0; y < f.H; y++ {
		b.Reset()
		for x := 0; x < f.W; x++ {
			if x > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", f.Gray[y*f.W+x])
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// asciiRamp maps dark → dense glyphs, light → sparse.
const asciiRamp = "@%#*+=-:. "

// ASCII renders the frame as coarse terminal art, downsampling to at most
// maxCols columns (rows follow the aspect ratio; terminal cells are about
// twice as tall as wide, so rows are halved).
func (f *Frame) ASCII(maxCols int) string {
	if maxCols <= 0 {
		maxCols = 64
	}
	cols := f.W
	if cols > maxCols {
		cols = maxCols
	}
	rows := f.H * cols / f.W / 2
	if rows < 1 {
		rows = 1
	}
	var b strings.Builder
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			// Average the gray levels of the represented block.
			x0, x1 := c*f.W/cols, (c+1)*f.W/cols
			y0, y1 := r*f.H/rows, (r+1)*f.H/rows
			if x1 <= x0 {
				x1 = x0 + 1
			}
			if y1 <= y0 {
				y1 = y0 + 1
			}
			var sum, cnt int
			for y := y0; y < y1 && y < f.H; y++ {
				for x := x0; x < x1 && x < f.W; x++ {
					sum += int(f.Gray[y*f.W+x])
					cnt++
				}
			}
			level := sum / cnt // 0..255
			idx := level * (len(asciiRamp) - 1) / 255
			b.WriteByte(asciiRamp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MeanGray returns the average gray level of the frame — a cheap scalar
// summary of how "smooth" (close to white) the field is; FOS smoothing
// after an SOS run visibly raises it (Figure 11).
func (f *Frame) MeanGray() float64 {
	var sum float64
	for _, g := range f.Gray {
		sum += float64(g)
	}
	return sum / float64(len(f.Gray))
}
