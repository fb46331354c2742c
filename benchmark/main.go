// Command benchmark is the end-to-end benchmark of the dfpr stack. It drives
// the real program from outside — the library API in-process for
// stream-rank, cmd/prserve subprocesses for the served workloads — over
// four named workloads, prints the request-level metrics with units, and
// checks that what the program answered is correct. A traced run (-trace 1)
// adds the per-layer numbers, from the harness's own spans around its
// calls, from probes that replay the recorded batches through each layer's
// public functions, and from the program's /metrics exposition.
//
// BENCHMARK.json at the root of the repository names the command
// (bash benchmark/run.sh), the workloads and the metrics; README.md in this
// directory says what each is for and how the sizes were chosen.
//
//	bash benchmark/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh                       # all workloads, untraced then traced
//	bash benchmark/run.sh -calibrate 5          # run-to-run spread, proposed bounds
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// env is one run's configuration.
type env struct {
	workload string
	seed     int64
	window   time.Duration
	warm     time.Duration
	trace    bool
	sz       sizing
	prserve  string
	dir      string // this run's scratch directory
	outDir   string
	rec      *recorder // nil on untraced runs
}

// result is one run's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	WindowS   float64            `json:"window_s"`
	WarmS     float64            `json:"warm_s"`
	Correct   bool               `json:"correct"`
	Invalid   bool               `json:"invalid,omitempty"` // the load generator itself ran late
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	E2E       map[string]float64 `json:"end_to_end"`
	Req       map[string]float64 `json:"request_level"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
	Samples   map[string]int     `json:"samples"`
	// Dist is, per latency metric, p10 p25 p50 p75 p90 and the rule's tail:
	// what to look at when a median moves.
	Dist map[string][6]float64 `json:"distribution,omitempty"`
	// Bases holds numerator and denominator of every ratio metric.
	Bases     map[string][2]float64 `json:"bases,omitempty"`
	Problems  []string              `json:"problems,omitempty"`
	InputHash string                `json:"input_hash"`
	Command   []string              `json:"program_command,omitempty"`
}

func newResult(e *env) *result {
	return &result{Workload: e.workload, Seed: e.seed, Traced: e.trace,
		WindowS: e.window.Seconds(), WarmS: e.warm.Seconds(), Correct: true,
		E2E: map[string]float64{}, Req: map[string]float64{}, Layer: map[string]float64{},
		Samples: map[string]int{}, Bases: map[string][2]float64{}, Dist: map[string][6]float64{}}
}

// problem records a failed correctness check.
func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// ratio stores a ratio metric with both of its bases.
func (r *result) ratio(name string, num, den float64) {
	r.Bases[name] = [2]float64{num, den}
	if den != 0 {
		r.Layer[name] = num / den
	}
}

var runners = map[string]func(*env) (*result, error){
	wStreamRank:  runStreamRank,
	wServeMixed:  runServeMixed,
	wIngestBurst: runIngestBurst,
	wReplicaRead: runReplicaRead,
}

// runOne runs one workload once and cleans up after it whatever happens.
func runOne(e *env) (res *result, err error) {
	run, ok := runners[e.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", e.workload, workloadNames)
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	defer killAll()
	if e.trace {
		e.rec = newRecorder()
	}
	res, err = run(e)
	if err != nil {
		return nil, err
	}
	res.finish(e)
	if e.trace {
		if err := os.MkdirAll(e.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := e.rec.write(filepath.Join(e.outDir, "trace-"+e.workload+".jsonl")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// finish fills what every workload shares: failed_share, explicit zeros for
// the names the workload does not produce, and the tracing overhead against
// the last untraced run of the same workload and seed in the out directory.
func (r *result) finish(e *env) {
	if r.Attempted > 0 {
		r.Req["failed_share"] = float64(r.Failed) / float64(r.Attempted)
	}
	for _, m := range requestLevel {
		if _, ok := r.Req[m.Name]; !ok {
			r.Req[m.Name] = 0
		}
	}
	if !e.trace {
		r.Layer = nil
		return
	}
	if prev, err := readResult(untracedPath(e)); err == nil {
		worst := 0.0
		for _, m := range endToEnd {
			// Timings and rates only: set-up and memory are not per-request
			// costs a span recorder could add to.
			if m.Name == "setup_s" || m.Name == "peak_rss_mb" || prev.E2E[m.Name] == 0 {
				continue
			}
			d := (r.E2E[m.Name] - prev.E2E[m.Name]) / prev.E2E[m.Name]
			if m.Better == "higher" {
				d = -d
			}
			worst = max(worst, d)
		}
		r.Layer["trace.overhead_share"] = worst
	}
	for _, m := range layerMetrics {
		if _, ok := r.Layer[m.Name]; !ok {
			r.Layer[m.Name] = 0
		}
	}
	if r.Layer["loadgen.late_p99_ms"] > 5 {
		r.Invalid = true
	}
}

func untracedPath(e *env) string {
	return filepath.Join(e.outDir, fmt.Sprintf("last-%s-seed%d.json", e.workload, e.seed))
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	return &r, json.Unmarshal(b, &r)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) driverLine() driverLine {
	out := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]driverValue{}}
	if !r.Traced {
		for _, m := range endToEnd {
			out.Metrics[m.Name] = driverValue{r.E2E[m.Name], m.Unit}
		}
		return out
	}
	for _, m := range layerMetrics {
		out.Metrics[m.Name] = driverValue{r.Layer[m.Name], m.Unit}
	}
	for _, m := range requestLevel {
		out.Metrics[m.Name] = driverValue{r.Req[m.Name], m.Unit}
	}
	return out
}

// printHuman lists every metric the run produced, with unit and sample
// count, on w.
func (r *result) printHuman(w *os.File) {
	fmt.Fprintf(w, "== %s seed=%d traced=%v window=%.0fs warm-up=%.0fs correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Traced, r.WindowS, r.WarmS, r.Correct, r.Attempted, r.Failed)
	row := func(m metricDef, v float64) {
		line := fmt.Sprintf("  %-28s %14.6g %-7s", m.Name, v, m.Unit)
		if n, ok := r.Samples[m.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		if m.Bound > 0 {
			line += fmt.Sprintf(" bound=%.3g", m.Bound)
		}
		if b, ok := r.Bases[m.Name]; ok {
			line += fmt.Sprintf(" (%.6g / %.6g)", b[0], b[1])
		}
		if d, ok := r.Dist[m.Name]; ok {
			line += fmt.Sprintf(" [p10 %.4g p25 %.4g p50 %.4g p75 %.4g p90 %.4g tail %.4g]", d[0], d[1], d[2], d[3], d[4], d[5])
		}
		fmt.Fprintln(w, line)
	}
	for _, m := range endToEnd {
		row(m, r.E2E[m.Name])
	}
	for _, m := range requestLevel {
		if v := r.Req[m.Name]; v != 0 || m.Name == "failed_share" {
			row(m, v)
		}
	}
	if r.Traced {
		for _, m := range layerMetrics {
			row(m, r.Layer[m.Name])
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  CHECK FAILED:", p)
	}
	if r.Invalid {
		fmt.Fprintln(w, "  INVALID: the open-loop generator fired more than 5 ms late at its tail")
	}
}

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print the driver's JSON line ("+fmt.Sprint(workloadNames)+")")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		seconds   = flag.Int("seconds", 15, "timed window per workload, seconds")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics")
		prserve   = flag.String("prserve", ".bench_build/prserve", "prserve binary to drive")
		work      = flag.String("work", ".bench_build/work", "scratch directory for graph files and data directories")
		outDir    = flag.String("out", "benchmark/out", "where traces and reports are written")
		smoke     = flag.Bool("smoke", false, "tiny graphs (RMAT 2^10) for the smoke test")
		calibrate = flag.Int("calibrate", 0, "run every workload N times, print spreads and proposed bounds")
		compare   = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
		manifest  = flag.String("manifest", "BENCHMARK.json", "manifest -compare takes its bounds from")
	)
	flag.Parse()

	// Any exit path must stop the subprocesses; signals included.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killAll()
		os.Exit(130)
	}()

	base := env{seed: *seed, window: time.Duration(*seconds) * time.Second, sz: fullSizing(),
		prserve: *prserve, outDir: *outDir}
	if *smoke {
		base.sz = smokeSizing()
	}
	base.warm = base.window / 5
	mk := func(w string, traced bool) *env {
		e := base
		e.workload, e.trace = w, traced
		e.dir = filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w, *seed, os.Getpid()))
		return &e
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		ok, err := compareReports(flag.Arg(0), flag.Arg(1), *manifest, os.Stdout)
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	case *calibrate > 0:
		if err := runCalibrate(mk, *calibrate, *outDir, *seed); err != nil {
			fatal("%v", err)
		}
	case *workload != "":
		e := mk(*workload, *trace == 1)
		res, err := runOne(e)
		if err != nil {
			fatal("%s: %v", *workload, err)
		}
		res.printHuman(os.Stderr)
		if !res.Traced {
			if err := writeJSON(untracedPath(e), res); err != nil {
				fatal("%v", err)
			}
		}
		line, err := json.Marshal(res.driverLine())
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		rep, err := runAll(mk)
		if err != nil {
			fatal("%v", err)
		}
		path := filepath.Join(*outDir, fmt.Sprintf("report-seed%d.json", *seed))
		if err := writeJSON(path, rep); err != nil {
			fatal("%v", err)
		}
		fmt.Println("report written to", path)
		if !rep.correct() {
			os.Exit(1)
		}
	}
}

// report is the full result of one invocation without -workload: for every
// workload an untraced run (the end-to-end figures of record) and a traced
// run (the per-layer figures), plus where it was measured.
type report struct {
	Host      hostInfo           `json:"host"`
	Seed      int64              `json:"seed"`
	Untraced  map[string]*result `json:"untraced"`
	Traced    map[string]*result `json:"traced"`
	Workloads []string           `json:"workloads"`
}

func (r *report) correct() bool {
	for _, m := range []map[string]*result{r.Untraced, r.Traced} {
		for _, res := range m {
			if !res.Correct {
				return false
			}
		}
	}
	return true
}

func runAll(mk func(string, bool) *env) (*report, error) {
	rep := &report{Host: thisHost(), Untraced: map[string]*result{}, Traced: map[string]*result{}, Workloads: workloadNames}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			e := mk(w, traced)
			rep.Seed = e.seed
			res, err := runOne(e)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w, err)
			}
			res.printHuman(os.Stdout)
			if traced {
				rep.Traced[w] = res
			} else {
				rep.Untraced[w] = res
				if err := writeJSON(untracedPath(e), res); err != nil {
					return nil, err
				}
			}
		}
	}
	return rep, nil
}

func fatal(format string, args ...any) {
	killAll()
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
