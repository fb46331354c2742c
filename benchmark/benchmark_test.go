package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

type manifestSpec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifestSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifestSpec
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// BENCHMARK.json and the tables in spec.go must name the same things.
func TestNamesMatchManifest(t *testing.T) {
	m := readManifest(t)
	var ws []string
	for _, w := range m.Workloads {
		ws = append(ws, w.Name)
	}
	if !reflect.DeepEqual(ws, workloadNames) {
		t.Errorf("workloads: manifest %v, code %v", ws, workloadNames)
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: manifest {%s %s %s}, code {%s %s %s}", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.Bound) {
				t.Errorf("%s %s: manifest bound %v, code %v", kind, w.Name, g.Bound, w.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, w.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, append(append([]metricDef(nil), layerMetrics...), requestLevel...), false)
	if len(layerMetrics) != 44 {
		t.Errorf("%d layer metrics, ISSUE 11 names 44", len(layerMetrics))
	}
}

func smokeEnv(t *testing.T, workload string, seed int64, traced bool) *env {
	dir := t.TempDir()
	return &env{workload: workload, seed: seed, window: time.Second, warm: 300 * time.Millisecond,
		trace: traced, sz: smokeSizing(), dir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out")}
}

// The same seed must give byte-identical graph files, bodies and schedules.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		hash := func(seed int64) string {
			e := smokeEnv(t, w, seed, false)
			if err := os.MkdirAll(e.dir, 0o755); err != nil {
				t.Fatal(err)
			}
			in, err := makeInputs(e)
			if err != nil {
				t.Fatal(err)
			}
			h, err := in.hash()
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		a, b, c := hash(1), hash(1), hash(2)
		if a != b {
			t.Errorf("%s: seed 1 gave %s and then %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w)
		}
	}
}

// The schedule must stay order-insensitive: that is what lets two
// connections interleave and the harness still know the final graph.
func TestScheduleOrderInsensitive(t *testing.T) {
	d := genGraph(10, 3)
	sched := makeSchedule(d, 64, 10, 3)
	if len(sched) == 0 {
		t.Fatal("empty schedule")
	}
	del, ins := map[[2]uint32]bool{}, map[[2]uint32]bool{}
	for _, b := range sched {
		for _, e := range b.Del {
			k := [2]uint32{e.U, e.V}
			if del[k] || !d.HasEdge(e.U, e.V) || e.U == e.V {
				t.Fatalf("deletion %v repeats or names no initial edge", e)
			}
			del[k] = true
		}
		for _, e := range b.Ins {
			k := [2]uint32{e.U, e.V}
			if ins[k] || d.HasEdge(e.U, e.V) || e.U == e.V {
				t.Fatalf("insertion %v repeats or names an initial edge", e)
			}
			ins[k] = true
		}
	}
}

func buildPrserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "prserve")
	out, err := exec.Command("go", "build", "-o", bin, "dfpr/cmd/prserve").CombinedOutput()
	if err != nil {
		t.Fatalf("build prserve: %v\n%s", err, out)
	}
	return bin
}

// The smoke pass: all four workloads on RMAT 2^10 with 1 s windows, the
// kill/restart and cluster legs included, untraced and traced. Every run
// must pass its checks and emit exactly the names the manifest lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts prserve subprocesses")
	}
	m := readManifest(t)
	names := func(ms []manifestMetric) []string {
		var out []string
		for _, x := range ms {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	bin := buildPrserve(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			e := smokeEnv(t, w, 1, traced)
			e.prserve = bin
			res, err := runOne(e)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			// 1 s windows cannot carry the sample floors of a real run.
			var real []string
			for _, p := range res.Problems {
				if !strings.Contains(p, "samples") {
					real = append(real, p)
				}
			}
			if len(real) > 0 {
				t.Errorf("%s traced=%v failed its checks: %v", w, traced, real)
			}
			want := names(m.EndToEnd)
			if traced {
				want = names(m.PerLayer)
			}
			if got := sortedKeys(res.driverLine().Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v emitted %v, manifest lists %v", w, traced, got, want)
			}
			if !traced {
				for name, v := range res.E2E {
					if v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", w, name, v)
					}
				}
			}
		}
	}
	procs.mu.Lock()
	left := len(procs.live)
	procs.mu.Unlock()
	if left != 0 {
		t.Errorf("%d subprocesses left running", left)
	}
}

// The package must be clean under go vet and the repo's own linter.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet and prlint")
	}
	for _, args := range [][]string{{"vet", "."}, {"run", "dfpr/cmd/prlint", "."}} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Errorf("go %v: %v\n%s", args, err, out)
		}
	}
}
