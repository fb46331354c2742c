package topk

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestLInf(t *testing.T) {
	if got := LInf([]float64{1, 2, 3}, []float64{1, 2.5, 2}); got != 1 {
		t.Errorf("LInf = %v", got)
	}
	if got := LInf(nil, nil); got != 0 {
		t.Errorf("LInf(empty) = %v", got)
	}
}

func TestLInfMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	LInf([]float64{1}, []float64{1, 2})
}

func TestSum(t *testing.T) {
	a := []float64{1, -2, 3}
	if got := Sum(a); got != 2 {
		t.Errorf("Sum = %v", got)
	}
}

func TestLInfPropertyIsMetric(t *testing.T) {
	f := func(a, b []float64) bool {
		if len(a) != len(b) {
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			a, b = a[:n], b[:n]
		}
		for _, x := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true // skip non-finite inputs
			}
		}
		d1, d2 := LInf(a, b), LInf(b, a)
		if d1 != d2 {
			return false // symmetry
		}
		if LInf(a, a) != 0 {
			return false // identity
		}
		return d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("GeoMean(1,100) = %v", got)
	}
	if got := GeoMean([]float64{5}); math.Abs(got-5) > 1e-9 {
		t.Errorf("GeoMean(5) = %v", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
	// Zero/negative entries skipped, not poisoning.
	if got := GeoMean([]float64{0, -3, 4}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean with junk = %v", got)
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(10*time.Second, 2*time.Second) != 5 {
		t.Error("Speedup arithmetic wrong")
	}
	if Speedup(time.Second, 0) != 0 {
		t.Error("Speedup by zero not guarded")
	}
}

// TestSelectMatchesSort pins the partial-selection kernel against a stable
// full sort over random inputs with heavy ties: identical prefix, including
// the lower-index-first tie rule, for every k.
func TestSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(8)) / 8 // few distinct values → many ties
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
		for _, k := range []int{1, 2, n / 2, n, n + 5} {
			got := Select(vals, k)
			want := k
			if want > n {
				want = n
			}
			if len(got) != want {
				t.Fatalf("trial %d: Select(%d) returned %d entries", trial, k, len(got))
			}
			for i := range got {
				if int(got[i]) != idx[i] {
					t.Fatalf("trial %d k=%d pos %d: got %d want %d (vals %v)",
						trial, k, i, got[i], idx[i], vals)
				}
			}
		}
	}
	if Select(nil, 3) != nil || Select([]float64{1}, 0) != nil {
		t.Error("degenerate Select not nil")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("A", "B")
	tab.AddRow("x", 1)
	tab.AddRow("yyyy", 2.5)
	tab.AddRow("z", 1500*time.Millisecond)
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + rule + 3 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "A") || !strings.Contains(lines[1], "-") {
		t.Error("header/rule malformed")
	}
	if !strings.Contains(out, "2.500") || !strings.Contains(out, "1.500s") {
		t.Errorf("cell formatting wrong:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("A", "B")
	tab.AddRow("has,comma", `has"quote`)
	csv := tab.CSV()
	if !strings.Contains(csv, `"has,comma"`) || !strings.Contains(csv, `"has""quote"`) {
		t.Errorf("CSV quoting wrong: %q", csv)
	}
	if !strings.HasPrefix(csv, "A,B\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.500",
		1e-9:    "1e-09",
		2.5e+07: "2.5e+07",
	}
	for x, want := range cases {
		if got := FormatFloat(x); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", x, got, want)
		}
	}
}

func TestFormatDur(t *testing.T) {
	cases := map[time.Duration]string{
		2 * time.Second:         "2.000s",
		1500 * time.Microsecond: "1.50ms",
		800 * time.Nanosecond:   "0.8µs",
	}
	for d, want := range cases {
		if got := FormatDur(d); got != want {
			t.Errorf("FormatDur(%v) = %q, want %q", d, got, want)
		}
	}
}
