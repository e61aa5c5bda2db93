package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// streamSpec is a grid with several groups, replicates and a scenario axis,
// so out-of-order group completion is actually exercised.
func streamSpec() Spec {
	return Spec{
		Graphs:     []string{"torus2d:8x8", "cycle:48"},
		Schemes:    []string{"sos", "fos"},
		Speeds:     []string{"twoclass:0.25:4"},
		Scenarios:  []string{"", "drain:at=10,frac=0.125,ramp=4"},
		Policies:   []string{"", "adaptive:16:64:10"},
		Replicates: 3,
		Rounds:     30,
		Every:      10,
	}
}

// TestStreamCSVByteIdentical: StreamCSV writes exactly the groups Run
// collects, for every worker count.
func TestStreamCSVByteIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	spec := streamSpec()
	res, err := Run(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := resultCSV(t, res)
	for _, workers := range []int{1, 4, 8} {
		var got bytes.Buffer
		if err := StreamCSV(context.Background(), spec, Options{Workers: workers}, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("workers=%d: StreamCSV output differs from Run's groups (%d vs %d bytes)",
				workers, got.Len(), len(want))
		}
	}
}

// TestStreamJSONByteIdentical: StreamJSON writes, byte for byte, the
// document encoding/json renders for Run's Result, for every worker count —
// same indentation, same group order, same trailing newline.
func TestStreamJSONByteIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	spec := streamSpec()
	res, err := Run(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, res)
	for _, workers := range []int{1, 4, 8} {
		var got bytes.Buffer
		if err := StreamJSON(context.Background(), spec, Options{Workers: workers}, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("workers=%d: StreamJSON output differs from encoding/json (%d vs %d bytes)",
				workers, got.Len(), len(want))
		}
	}
}

// TestStreamJSONValidates: malformed specs fail before anything is written.
func TestStreamJSONValidates(t *testing.T) {
	var buf bytes.Buffer
	spec := streamSpec()
	spec.Runtimes = []string{"actor:nope"}
	if err := StreamJSON(context.Background(), spec, Options{}, &buf); err == nil {
		t.Error("StreamJSON accepted a malformed runtime spec")
	}
	if buf.Len() != 0 {
		t.Errorf("StreamJSON wrote %d bytes before validation failed", buf.Len())
	}
}

// TestStreamCSVValidates: malformed specs fail before anything is written.
func TestStreamCSVValidates(t *testing.T) {
	var buf bytes.Buffer
	spec := streamSpec()
	spec.Scenarios = []string{"tsunami:at=5"}
	if err := StreamCSV(context.Background(), spec, Options{}, &buf); err == nil {
		t.Error("StreamCSV accepted a malformed scenario spec")
	}
	if buf.Len() != 0 {
		t.Errorf("StreamCSV wrote %d bytes before validation failed", buf.Len())
	}
}

// TestCSVHeaderRoundTrip is the header-constant satellite: every written
// row has exactly the csvHeader's width, the header parses back to the
// constant, and the width is pinned so the next column addition is a
// conscious diff (PR 4 grew it to 16 silently; the scenario column made
// it 17; the runtime column makes it 18).
func TestCSVHeaderRoundTrip(t *testing.T) {
	if len(csvHeader) != 18 {
		t.Fatalf("csvHeader has %d columns, want 18 — update this pin AND the README column list consciously", len(csvHeader))
	}
	spec := Spec{
		Graphs:    []string{"torus2d:8x8"},
		Schemes:   []string{"sos"},
		Speeds:    []string{"twoclass:0.25:4"},
		Scenarios: []string{"correlated:at=5,frac=0.25,factor=0.5,load=1000"},
		Policies:  []string{"adaptive:16:64:10"},
		Rounds:    20,
		Every:     10,
	}
	var buf bytes.Buffer
	if err := StreamCSV(context.Background(), spec, Options{Workers: 1}, &buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("written CSV does not parse back: %v", err)
	}
	if !reflect.DeepEqual(rows[0], csvHeader) {
		t.Fatalf("header row %v does not round-trip the csvHeader constant %v", rows[0], csvHeader)
	}
	for i, row := range rows {
		if len(row) != len(csvHeader) {
			t.Fatalf("row %d has %d fields, header promises %d", i, len(row), len(csvHeader))
		}
	}
	// The scenario spec (commas and all) must survive in its column.
	if got := rows[1][7]; got != "correlated:at=5,frac=0.25,factor=0.5,load=1000" {
		t.Errorf("scenario column = %q", got)
	}
	if !strings.Contains(text, "ideal_drift") || !strings.Contains(text, "peak_discrepancy") {
		t.Error("scenario cells should record the coupled metric set")
	}
}
