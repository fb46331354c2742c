// Package topk provides the top-k selection kernel of the query path
// (Select, the size-k-heap partial selection Views build their leaderboard
// caches from) and the measurement substrate of §5.1.5: the L∞ error norm
// against reference PageRanks, geometric-mean aggregation across graphs
// (the paper's "average time taken ... geometric mean"), speedup ratios,
// and small ASCII/CSV table formatting shared by the experiment drivers.
package topk

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// LInf returns the L∞ norm (maximum absolute difference) between two
// equal-length vectors. It panics on length mismatch, which is always a
// harness bug.
func LInf(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("topk: LInf length mismatch %d vs %d", len(a), len(b)))
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Sum returns the element sum (the rank-mass invariant: ≈ 1 on dead-end-free
// graphs).
func Sum(a []float64) float64 {
	var s float64
	for _, x := range a {
		s += x
	}
	return s
}

// GeoMean returns the geometric mean of positive values; zero/negative
// entries are skipped (they would otherwise poison the log sum). An empty
// input yields 0.
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Speedup returns base/x (how many times faster x is than base). Zero when
// x is zero.
func Speedup(base, x time.Duration) float64 {
	if x <= 0 {
		return 0
	}
	return float64(base) / float64(x)
}

// Select returns the indices of the k largest values in descending order,
// ties broken toward the lower index. It is the shared top-k kernel of the
// query path: a size-k min-heap partial selection, O(n log k) time and O(k)
// space, so selecting a leaderboard never sorts (or allocates) the whole
// vector. k ≥ n degenerates to a full descending sort of the indices.
func Select(vals []float64, k int) []uint32 {
	n := len(vals)
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	// worse reports a strictly lower priority: smaller value, or equal value
	// with the higher index (so the heap evicts high indices first and the
	// final order prefers low indices on ties).
	worse := func(a, b uint32) bool {
		if vals[a] != vals[b] {
			return vals[a] < vals[b]
		}
		return a > b
	}
	h := make([]uint32, 0, k)
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(h) && worse(h[l], h[min]) {
				min = l
			}
			if r < len(h) && worse(h[r], h[min]) {
				min = r
			}
			if min == i {
				return
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
	for i := 0; i < n; i++ {
		u := uint32(i)
		if len(h) < k {
			h = append(h, u)
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if !worse(h[c], h[p]) {
					break
				}
				h[c], h[p] = h[p], h[c]
				c = p
			}
			continue
		}
		if worse(h[0], u) { // u beats the current worst of the top k
			h[0] = u
			siftDown(0)
		}
	}
	sort.Slice(h, func(a, b int) bool { return worse(h[b], h[a]) })
	return h
}

// Table accumulates rows and renders them with aligned columns; the
// experiment drivers use it to print the paper's tables and figure series.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; each cell is formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case time.Duration:
			row[i] = FormatDur(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with space-aligned columns.
func (t *Table) String() string {
	all := make([][]string, 0, len(t.rows)+1)
	if len(t.header) > 0 {
		all = append(all, t.header)
	}
	all = append(all, t.rows...)
	width := map[int]int{}
	for _, row := range all {
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, row := range all {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
		if ri == 0 && len(t.header) > 0 {
			for i := range row {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", width[i]))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	write := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		write(t.header)
	}
	for _, r := range t.rows {
		write(r)
	}
	return b.String()
}

// FormatFloat renders a float compactly: scientific for very small/large
// magnitudes, fixed otherwise.
func FormatFloat(x float64) string {
	ax := math.Abs(x)
	switch {
	case x == 0:
		return "0"
	case ax < 1e-3 || ax >= 1e6:
		return fmt.Sprintf("%.3g", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// FormatDur renders a duration with millisecond-ish precision.
func FormatDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}
