package hetero

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestHomogeneous(t *testing.T) {
	sp := Homogeneous(10)
	if sp.Len() != 10 || !sp.IsHomogeneous() {
		t.Fatalf("Homogeneous(10) = len %d, homog %v", sp.Len(), sp.IsHomogeneous())
	}
	if sp.Of(3) != 1 || sp.Max() != 1 || sp.Sum() != 10 {
		t.Error("homogeneous accessors wrong")
	}
	s := sp.Slice()
	if len(s) != 10 {
		t.Fatalf("Slice len %d", len(s))
	}
	for _, v := range s {
		if v != 1 {
			t.Fatal("homogeneous slice must be all ones")
		}
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name   string
		speeds []float64
	}{
		{"empty", nil},
		{"below-one", []float64{1, 0.5}},
		{"nan", []float64{1, math.NaN()}},
		{"inf", []float64{1, math.Inf(1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.speeds); !errors.Is(err, ErrBadSpeeds) {
				t.Errorf("New(%v) should fail with ErrBadSpeeds", tc.speeds)
			}
		})
	}
}

func TestNewDetectsHomogeneous(t *testing.T) {
	sp, err := New([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sp.IsHomogeneous() {
		t.Error("all-ones vector should be detected as homogeneous")
	}
	sp2, err := New([]float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sp2.IsHomogeneous() {
		t.Error("non-uniform vector misdetected as homogeneous")
	}
	if sp2.Max() != 2 || sp2.Sum() != 4 || sp2.Of(1) != 2 {
		t.Error("accessors wrong for explicit speeds")
	}
}

func TestNewCopiesInput(t *testing.T) {
	in := []float64{1, 2, 3}
	sp, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = 99
	if sp.Of(0) != 1 {
		t.Error("New must copy the input slice")
	}
}

func TestSpeedsEqual(t *testing.T) {
	mustNew := func(v ...float64) *Speeds {
		t.Helper()
		sp, err := New(v)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	a := mustNew(1, 2, 3.5)
	next := math.Nextafter(3.5, 4)
	cases := []struct {
		name string
		x, y *Speeds
		want bool
	}{
		{"same pointer", a, a, true},
		{"same content", a, mustNew(1, 2, 3.5), true},
		{"last entry one ulp apart", a, mustNew(1, 2, next), false},
		{"first entry differs", a, mustNew(2, 2, 3.5), false},
		{"different length", a, mustNew(1, 2, 3.5, 1), false},
		{"homogeneous, same length", Homogeneous(3), Homogeneous(3), true},
		{"homogeneous, different length", Homogeneous(3), Homogeneous(4), false},
		{"all-ones vector is homogeneous", mustNew(1, 1, 1), Homogeneous(3), true},
		{"homogeneous vs explicit", Homogeneous(3), a, false},
		{"nil vs nil", nil, nil, true},
		{"nil vs homogeneous", nil, Homogeneous(3), false},
	}
	for _, c := range cases {
		if got := c.x.Equal(c.y); got != c.want {
			t.Errorf("%s: x.Equal(y) = %v, want %v", c.name, got, c.want)
		}
		if got := c.y.Equal(c.x); got != c.want {
			t.Errorf("%s: y.Equal(x) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestIdealLoad(t *testing.T) {
	sp, err := New([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	ideal := sp.IdealLoad(100)
	if ideal[0] != 25 || ideal[1] != 75 {
		t.Errorf("IdealLoad = %v, want [25 75]", ideal)
	}
}

func TestTwoClass(t *testing.T) {
	sp, err := TwoClass(1000, 0.3, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	fast := 0
	for i := 0; i < sp.Len(); i++ {
		switch sp.Of(i) {
		case 5:
			fast++
		case 1:
		default:
			t.Fatalf("unexpected speed %g", sp.Of(i))
		}
	}
	if fast < 230 || fast > 370 {
		t.Errorf("fast fraction = %d/1000, want ~300", fast)
	}
	// Determinism.
	sp2, err := TwoClass(1000, 0.3, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if sp.Of(i) != sp2.Of(i) {
			t.Fatal("TwoClass must be deterministic per seed")
		}
	}
	if _, err := TwoClass(0, 0.5, 2, 1); err == nil {
		t.Error("n=0 must fail")
	}
	if _, err := TwoClass(10, 0.5, 0.5, 1); err == nil {
		t.Error("fastSpeed < 1 must fail")
	}
}

func TestUniformRange(t *testing.T) {
	sp, err := UniformRange(5000, 9, 7)
	if err != nil {
		t.Fatal(err)
	}
	var min, max, sum float64 = math.Inf(1), 0, 0
	for i := 0; i < sp.Len(); i++ {
		v := sp.Of(i)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	if min < 1 || max > 9 {
		t.Errorf("range [%g, %g] outside [1, 9]", min, max)
	}
	if mean := sum / 5000; math.Abs(mean-5) > 0.2 {
		t.Errorf("mean %g, want ~5", mean)
	}
}

func TestPowerLaw(t *testing.T) {
	sp, err := PowerLaw(5000, 2.5, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for i := 0; i < sp.Len(); i++ {
		v := sp.Of(i)
		if v < 1 || v > 100 {
			t.Fatalf("speed %g outside [1, 100]", v)
		}
		if v > 10 {
			count++
		}
	}
	// Pareto(2.5): P(X > 10) = 10^-1.5 ≈ 3.2%, truncation shifts slightly.
	if count == 0 || count > 500 {
		t.Errorf("heavy tail count = %d, want a few percent of 5000", count)
	}
	if _, err := PowerLaw(10, 1, 100, 3); err == nil {
		t.Error("alpha <= 1 must fail")
	}
}

func TestSingleFast(t *testing.T) {
	sp, err := SingleFast(8, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		want := 1.0
		if i == 3 {
			want = 7
		}
		if sp.Of(i) != want {
			t.Fatalf("speed[%d] = %g, want %g", i, sp.Of(i), want)
		}
	}
	if sp.Sum() != 14 || sp.Max() != 7 {
		t.Error("aggregates wrong")
	}
	if _, err := SingleFast(8, 9, 2); err == nil {
		t.Error("out-of-range index must fail")
	}
}

func TestNilSpeedsSafeAccessors(t *testing.T) {
	var sp *Speeds
	if !sp.IsHomogeneous() {
		t.Error("nil Speeds must read as homogeneous")
	}
	if sp.Of(5) != 1 {
		t.Error("nil Speeds Of must be 1")
	}
	if sp.Max() != 1 {
		t.Error("nil Speeds Max must be 1")
	}
}

// Property: every generated speed vector is valid for the model.
func TestPropertyGeneratorsRespectModel(t *testing.T) {
	f := func(seed uint64, nRaw uint8, maxRaw uint8) bool {
		n := 1 + int(nRaw)%100
		maxSpeed := 1 + float64(maxRaw%50)
		sp, err := UniformRange(n, maxSpeed, seed)
		if err != nil {
			return false
		}
		var sum float64
		for i := 0; i < n; i++ {
			v := sp.Of(i)
			if v < 1 || v > maxSpeed {
				return false
			}
			sum += v
		}
		return math.Abs(sum-sp.Sum()) < 1e-9*(1+sum) && sp.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
