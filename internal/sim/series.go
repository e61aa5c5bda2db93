// Package sim drives balancing processes for many rounds while recording
// the paper's quality metrics, and renders the recorded series as CSV or
// aligned text tables. It is the harness behind every figure
// reproduction: a Runner owns a core.Process, samples a configurable set of
// metrics at a configurable cadence, and optionally applies a hybrid
// SOS→FOS switch policy mid-run (Section VI-A).
package sim

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Series is a recorded table of per-round metric values.
type Series struct {
	names  []string
	rounds []int
	values [][]float64 // values[i] is the row recorded at rounds[i]
}

// NewSeries creates an empty series with the given column names.
func NewSeries(names ...string) *Series {
	cp := make([]string, len(names))
	copy(cp, names)
	return &Series{names: cp}
}

// Names returns the column names.
func (s *Series) Names() []string { return s.names }

// Len returns the number of recorded rows.
func (s *Series) Len() int { return len(s.rounds) }

// Append records a row. The number of values must match the column count.
func (s *Series) Append(round int, vals ...float64) error {
	if len(vals) != len(s.names) {
		return fmt.Errorf("sim: row has %d values for %d columns", len(vals), len(s.names))
	}
	cp := make([]float64, len(vals))
	copy(cp, vals)
	s.rounds = append(s.rounds, round)
	s.values = append(s.values, cp)
	return nil
}

// Round returns the round number of row i.
func (s *Series) Round(i int) int { return s.rounds[i] }

// Row returns the values of row i (read-only view).
func (s *Series) Row(i int) []float64 { return s.values[i] }

// Column extracts one column by name.
func (s *Series) Column(name string) ([]float64, error) {
	idx := -1
	for i, n := range s.names {
		if n == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("sim: no column %q (have %v)", name, s.names)
	}
	out := make([]float64, len(s.values))
	for i, row := range s.values {
		out[i] = row[idx]
	}
	return out, nil
}

// Last returns the final recorded value of the named column.
func (s *Series) Last(name string) (float64, error) {
	col, err := s.Column(name)
	if err != nil {
		return 0, err
	}
	if len(col) == 0 {
		return 0, fmt.Errorf("sim: column %q is empty", name)
	}
	return col[len(col)-1], nil
}

// MinOf returns the smallest recorded value of the named column.
func (s *Series) MinOf(name string) (float64, error) {
	col, err := s.Column(name)
	if err != nil {
		return 0, err
	}
	if len(col) == 0 {
		return 0, fmt.Errorf("sim: column %q is empty", name)
	}
	mn := col[0]
	for _, v := range col[1:] {
		if v < mn {
			mn = v
		}
	}
	return mn, nil
}

// WriteCSV writes the series with a "round" leading column.
func (s *Series) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("round")
	for _, n := range s.names {
		b.WriteByte(',')
		b.WriteString(n)
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for i, row := range s.values {
		b.Reset()
		b.WriteString(strconv.Itoa(s.rounds[i]))
		for _, v := range row {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(v, 'g', 10, 64))
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable writes an aligned text table, downsampled to at most maxRows
// evenly spaced rows (maxRows <= 0 means all rows). This is the "same rows
// the paper plots" view used by the experiment harness.
func (s *Series) WriteTable(w io.Writer, maxRows int) error {
	idx := make([]int, 0, len(s.rounds))
	if maxRows <= 0 || len(s.rounds) <= maxRows {
		for i := range s.rounds {
			idx = append(idx, i)
		}
	} else {
		step := float64(len(s.rounds)-1) / float64(maxRows-1)
		prev := -1
		for k := 0; k < maxRows; k++ {
			i := int(float64(float64(k)*step) + 0.5)
			if i >= len(s.rounds) {
				i = len(s.rounds) - 1
			}
			if i != prev {
				idx = append(idx, i)
				prev = i
			}
		}
	}
	headers := append([]string{"round"}, s.names...)
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	rows := make([][]string, 0, len(idx))
	for _, i := range idx {
		row := make([]string, 0, len(headers))
		row = append(row, strconv.Itoa(s.rounds[i]))
		for _, v := range s.values[i] {
			row = append(row, formatMetric(v))
		}
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
		rows = append(rows, row)
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for c, cell := range cells {
			if c > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat(" ", widths[c]-len(cell)))
			b.WriteString(cell)
		}
		b.WriteByte('\n')
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := writeRow(headers); err != nil {
		return err
	}
	for _, row := range rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// formatMetric renders a metric value compactly: integers exactly, large or
// tiny magnitudes in scientific notation.
func formatMetric(v float64) string {
	//lint:allow floateq integer-representability test is exact by construction
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	av := v
	if av < 0 {
		av = -av
	}
	if av >= 1e6 || (av > 0 && av < 1e-3) {
		return strconv.FormatFloat(v, 'e', 3, 64)
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}
