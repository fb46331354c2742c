package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostInfo says where a report was measured; numbers from different hosts
// do not compare.
type hostInfo struct {
	NProc     int    `json:"nproc"`
	CPU       string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

func thisHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// spread summarises one metric over repeated runs.
type spread struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Rel is (Q3 − Q1) ÷ median, the driver's steadiness figure.
	Rel float64 `json:"rel_spread"`
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// "exclusive" method the driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func spreadOf(xs []float64) spread {
	sp := spread{Values: xs}
	if len(xs) < 2 {
		if len(xs) == 1 {
			sp.Median, sp.Q1, sp.Q3 = xs[0], xs[0], xs[0]
		}
		return sp
	}
	sp.Q1, sp.Median, sp.Q3 = quartiles(xs)
	if sp.Median != 0 {
		sp.Rel = (sp.Q3 - sp.Q1) / sp.Median
	}
	return sp
}

// calibration is what -calibrate writes: per workload and metric, the
// spread over N back-to-back untraced runs.
type calibration struct {
	Host      hostInfo                     `json:"host"`
	Seed      int64                        `json:"seed"`
	Runs      int                          `json:"runs"`
	Spreads   map[string]map[string]spread `json:"spreads"` // workload → metric
	InputHash map[string]string            `json:"input_hash"`
}

// runCalibrate runs every workload n times untraced, with seeds seed,
// seed+1, … (as the driver does), and prints median, quartiles, relative
// spread and the bound that spread calls for: the metric's own bound when
// the spread is within a third of it, else three times the spread, and
// "demote" when that would exceed 0.25.
func runCalibrate(mk func(string, bool) *env, n int, outDir string, seed int64) error {
	cal := calibration{Host: thisHost(), Seed: seed, Runs: n,
		Spreads: map[string]map[string]spread{}, InputHash: map[string]string{}}
	for _, w := range workloadNames {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			e := mk(w, false)
			e.seed = seed + int64(i)
			res, err := runOne(e)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w, i+1, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d failed its checks: %v", w, i+1, res.Problems)
			}
			if i == 0 {
				cal.InputHash[w] = res.InputHash
			}
			for name, v := range res.E2E {
				vals[name] = append(vals[name], v)
			}
			for name, v := range res.Req {
				if v != 0 {
					vals[name] = append(vals[name], v)
				}
			}
			fmt.Fprintf(os.Stderr, "calibrate %s %d/%d done\n", w, i+1, n)
		}
		cal.Spreads[w] = map[string]spread{}
		for name, xs := range vals {
			cal.Spreads[w][name] = spreadOf(xs)
		}
	}
	printCalibration(os.Stdout, cal)
	return writeJSON(filepath.Join(outDir, fmt.Sprintf("calibrate-seed%d.json", seed)), cal)
}

func printCalibration(w io.Writer, cal calibration) {
	fmt.Fprintf(w, "%-13s %-24s %12s %12s %12s %8s %7s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "proposal")
	for _, wl := range workloadNames {
		for _, m := range requestMetrics() {
			sp, ok := cal.Spreads[wl][m.Name]
			if !ok || m.Name == "failed_share" {
				continue
			}
			proposal := "keep"
			switch {
			case sp.Rel*3 > 0.25 && m.Name != "setup_s":
				proposal = "demote (needs > 0.25)"
			case sp.Rel*3 > m.Bound:
				proposal = fmt.Sprintf("raise to %.2f", sp.Rel*3)
			}
			fmt.Fprintf(w, "%-13s %-24s %12.6g %12.6g %12.6g %8.4f %7.3g  %s\n", wl, m.Name, sp.Median, sp.Q1, sp.Q3, sp.Rel, m.Bound, proposal)
		}
	}
}

// requestMetrics are all request-level metrics, gated or informational.
func requestMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), requestLevel...)
}

// manifestFile is the part of BENCHMARK.json -compare reads.
type manifestFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareReports prints one row per workload × metric for two reports (from
// runs without -workload) or two calibrations: the parent's and the change's
// figure, the relative change in the direction that is worse, the bound,
// and a verdict. Bounds of the end-to-end metrics come from the manifest;
// the request-level ones from this package's table. With calibrations, a
// metric whose spread on either side exceeds its bound is "unresolved", not
// "ok". It returns false when any metric regressed.
func compareReports(a, b, manifest string, w io.Writer) (bool, error) {
	bounds := map[string]metricDef{}
	for _, m := range requestMetrics() {
		bounds[m.Name] = m
	}
	var mf manifestFile
	if raw, err := os.ReadFile(manifest); err == nil {
		if err := json.Unmarshal(raw, &mf); err != nil {
			return false, fmt.Errorf("%s: %w", manifest, err)
		}
		for _, m := range mf.EndToEnd {
			d := bounds[m.Name]
			d.Name, d.Better, d.Bound = m.Name, m.Better, m.Bound
			bounds[m.Name] = d
		}
	}
	va, spa, err := loadFigures(a)
	if err != nil {
		return false, err
	}
	vb, spb, err := loadFigures(b)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-13s %-24s %12s %12s %9s %7s  %s\n", "workload", "metric", "parent", "change", "worse by", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, name := range sortedKeys(va[wl]) {
			m, known := bounds[name]
			x, y := va[wl][name], vb[wl][name]
			if !known || x == 0 && y == 0 {
				continue
			}
			worse := 0.0
			if name == "failed_share" {
				worse = y - x // absolute
			} else if x != 0 {
				worse = (y - x) / x
				if m.Better == "higher" {
					worse = -worse
				}
			}
			verdict := "ok"
			switch {
			case max(spa[wl][name], spb[wl][name]) > m.Bound:
				verdict = "unresolved (spread exceeds bound)"
			case worse > m.Bound:
				verdict, ok = "REGRESSED", false
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-13s %-24s %12.6g %12.6g %+8.1f%% %7.3g  %s\n", wl, name, x, y, 100*worse, m.Bound, verdict)
		}
	}
	return ok, nil
}

// loadFigures reads a report or a calibration and returns, per workload,
// each metric's value (median) and its relative spread (0 for a report).
func loadFigures(path string) (vals, spreads map[string]map[string]float64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	vals, spreads = map[string]map[string]float64{}, map[string]map[string]float64{}
	var cal calibration
	if err := json.Unmarshal(raw, &cal); err == nil && len(cal.Spreads) > 0 {
		for wl, ms := range cal.Spreads {
			vals[wl], spreads[wl] = map[string]float64{}, map[string]float64{}
			for name, sp := range ms {
				vals[wl][name], spreads[wl][name] = sp.Median, sp.Rel
			}
		}
		return vals, spreads, nil
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Untraced) == 0 {
		return nil, nil, fmt.Errorf("%s is neither a report nor a calibration", path)
	}
	for wl, r := range rep.Untraced {
		vals[wl], spreads[wl] = map[string]float64{}, map[string]float64{}
		for name, v := range r.E2E {
			vals[wl][name] = v
		}
		for name, v := range r.Req {
			vals[wl][name] = v
		}
	}
	return vals, spreads, nil
}
