package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dfpr/internal/gen"
	"dfpr/internal/gio"
	"dfpr/internal/graph"
)

// Everything the program under test receives is made here from the seed:
// graph files, apply bodies and the read schedule. The same seed gives the
// same bytes (TestInputsDeterministic).

// editBatch is one write. The schedule is order-insensitive so that two
// closed-loop connections may land their batches in any interleaving and
// the final graph is still known: deletions name initial edges only, each
// once; insertions name pairs absent from the initial graph, each once.
type editBatch struct {
	Del, Ins []graph.Edge
}

func (b editBatch) size() int { return len(b.Del) + len(b.Ins) }

// genGraph is the workload graph: RMAT 2^scale × edgeFactor.
func genGraph(scale int, seed int64) *graph.Dynamic {
	return gen.RMAT(scale, edgeFactor, seed)
}

// makeSchedule draws up to `batches` batches of `size` edits on d. It stops
// early when the initial graph runs out of edges to delete.
func makeSchedule(d *graph.Dynamic, batches, size int, seed int64) []editBatch {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	n := d.N()
	nDel := int(float64(size)*(1-insertShare) + 0.5)
	nIns := size - nDel
	pool := make([]graph.Edge, 0, d.M())
	for u := uint32(0); int(u) < n; u++ {
		for _, v := range d.Out(u) {
			if v != u {
				pool = append(pool, graph.Edge{U: u, V: v})
			}
		}
	}
	if nDel > 0 && batches*nDel > len(pool)/2 {
		batches = len(pool) / 2 / nDel
	}
	seen := make(map[graph.Edge]struct{}, batches*nIns)
	out := make([]editBatch, 0, batches)
	for b := 0; b < batches; b++ {
		var eb editBatch
		for i := 0; i < nDel; i++ {
			j := rng.Intn(len(pool))
			eb.Del = append(eb.Del, pool[j])
			pool[j] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
		}
		for len(eb.Ins) < nIns {
			e := graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
			if _, dup := seen[e]; dup || e.U == e.V || d.HasEdge(e.U, e.V) {
				continue
			}
			seen[e] = struct{}{}
			eb.Ins = append(eb.Ins, e)
		}
		out = append(out, eb)
	}
	return out
}

// keyEdge and keyedBatch are the keyed forms for ingest-burst.
type keyEdge struct{ From, To string }

type keyedBatch struct {
	Del, Ins []keyEdge
}

func (b keyedBatch) size() int { return len(b.Del) + len(b.Ins) }

func vkey(u uint32) string { return fmt.Sprintf("v%d", u) }

// deleteLag is how many batches must lie between an insertion and the
// deletion of the same edge. With burstConns closed-loop connections a batch
// is sent only after every batch burstConns places before it was
// acknowledged, so a deletion this far behind always finds its edge applied.
const deleteLag = 4 * burstConns

// keySchedule draws the keyed schedule of ingest-burst: per batch as many
// deletions as insertions, so that the graph — and with it the size of every
// retained version — holds through the burst, a share of the insertions
// naming a never-seen key ("n<i>") that the server interns as a new vertex. Only
// vertices the initial edge list mentions exist on a keyed server, so the
// other insertions are drawn between those. A burst outlasts the initial
// edges of a small graph, so deletions may also name an edge an earlier
// batch inserted, deleteLag batches back or more; set semantics then still
// give one final graph whatever the interleaving of the connections.
func keySchedule(d *graph.Dynamic, batches, size int, seed int64) []keyedBatch {
	present := mentioned(d)
	rng := rand.New(rand.NewSource(seed ^ 0xbeef))
	nDel := size / 2
	nIns := size - nDel
	var pool []keyEdge // deletable now
	for u := uint32(0); int(u) < d.N(); u++ {
		for _, v := range d.Out(u) {
			if v != u {
				pool = append(pool, keyEdge{vkey(u), vkey(v)})
			}
		}
	}
	out := make([]keyedBatch, batches)
	fresh := 0
	seen := make(map[graph.Edge]struct{})
	for i := range out {
		if i >= deleteLag {
			pool = append(pool, out[i-deleteLag].Ins...)
		}
		kb := keyedBatch{}
		for len(kb.Del) < nDel && len(pool) > 0 {
			j := rng.Intn(len(pool))
			kb.Del = append(kb.Del, pool[j])
			pool[j] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
		}
		for len(kb.Ins) < nIns {
			u := present[rng.Intn(len(present))]
			if rng.Float64() < burstNewKeys {
				kb.Ins = append(kb.Ins, keyEdge{vkey(u), fmt.Sprintf("n%d", fresh)})
				fresh++
				continue
			}
			v := present[rng.Intn(len(present))]
			e := graph.Edge{U: u, V: v}
			if _, dup := seen[e]; dup || u == v || d.HasEdge(u, v) {
				continue
			}
			seen[e] = struct{}{}
			kb.Ins = append(kb.Ins, keyEdge{vkey(u), vkey(v)})
		}
		out[i] = kb
	}
	return out
}

// mentioned lists the vertices with at least one edge, ascending.
func mentioned(d *graph.Dynamic) []uint32 {
	has := make([]bool, d.N())
	for u := uint32(0); int(u) < d.N(); u++ {
		for _, v := range d.Out(u) {
			has[u], has[v] = true, true
		}
	}
	var out []uint32
	for u, ok := range has {
		if ok {
			out = append(out, uint32(u))
		}
	}
	return out
}

// wireEdge is serve's apply body edge, in either addressing mode.
type wireEdge struct {
	U    uint32 `json:"u"`
	V    uint32 `json:"v"`
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
}

type wireBatch struct {
	Del []wireEdge `json:"del"`
	Ins []wireEdge `json:"ins"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of ints and strings cannot fail to encode
	}
	return b
}

func denseBody(b editBatch) []byte {
	w := wireBatch{Del: []wireEdge{}, Ins: []wireEdge{}}
	for _, e := range b.Del {
		w.Del = append(w.Del, wireEdge{U: e.U, V: e.V})
	}
	for _, e := range b.Ins {
		w.Ins = append(w.Ins, wireEdge{U: e.U, V: e.V})
	}
	return mustJSON(w)
}

func keyedBody(b keyedBatch) []byte {
	w := wireBatch{Del: []wireEdge{}, Ins: []wireEdge{}}
	for _, e := range b.Del {
		w.Del = append(w.Del, wireEdge{From: e.From, To: e.To})
	}
	for _, e := range b.Ins {
		w.Ins = append(w.Ins, wireEdge{From: e.From, To: e.To})
	}
	return mustJSON(w)
}

// writeCSR writes the dense workload graph as a binary CSR container, the
// zero-parse input prserve -in sniffs by magic.
func writeCSR(path string, d *graph.Dynamic) error {
	return gio.WriteCSRFile(path, d.Snapshot())
}

// writeKeyed writes the graph as a keyed edge list, "v<u> v<w>" per line.
func writeKeyed(path string, d *graph.Dynamic) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for u := uint32(0); int(u) < d.N(); u++ {
		for _, v := range d.Out(u) {
			fmt.Fprintf(bw, "v%d v%d\n", u, v)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readOp is one scheduled read.
type readOp struct {
	Due  time.Duration // offset from the start of the read loop
	TopK bool
	Path string
}

// readSchedule fixes every read of an open-loop class before the run: its
// due time, its kind and its target among the dense ids [0, n).
func readSchedule(rate int, span time.Duration, n int, seed int64) []readOp {
	rng := rand.New(rand.NewSource(seed ^ 0x4ead))
	gap := time.Second / time.Duration(rate)
	out := make([]readOp, int(span.Seconds()*float64(rate)))
	for i := range out {
		out[i].Due = time.Duration(i) * gap
		if rng.Float64() < topkShare {
			out[i].TopK, out[i].Path = true, "/v1/topk?k=10"
		} else {
			out[i].Path = fmt.Sprintf("/v1/rank/%d", rng.Intn(n))
		}
	}
	return out
}

func allVertices(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// inputs is everything one workload hands the program: the graph file, the
// write schedule with its request bodies, and the read schedule.
type inputs struct {
	d         *graph.Dynamic // the initial graph, as generated
	graphFile string
	dense     []editBatch  // dense-id workloads
	keyed     []keyedBatch // ingest-burst
	bodies    [][]byte     // one apply body per batch, in schedule order
	reads     []readOp
}

// makeInputs generates the workload's inputs from the seed and writes the
// graph file into the run's directory.
func makeInputs(e *env) (*inputs, error) {
	in := &inputs{graphFile: filepath.Join(e.dir, "g.csr")}
	span := e.warm + e.window
	switch e.workload {
	case wStreamRank:
		in.d = genGraph(e.sz.streamScale, e.seed)
		in.dense = makeSchedule(in.d, 4096, streamBatchSize(in.d.M()), e.seed)
	case wServeMixed:
		in.d = genGraph(e.sz.mixedScale, e.seed)
		in.dense = makeSchedule(in.d, 4096, mixedBatch, e.seed)
		in.reads = readSchedule(readRate, span, in.d.N(), e.seed)
	case wIngestBurst:
		in.d = genGraph(e.sz.burstScale, e.seed)
		in.keyed = keySchedule(in.d, 16384, burstBatch, e.seed)
		in.graphFile = filepath.Join(e.dir, "g.kel")
	case wReplicaRead:
		in.d = genGraph(e.sz.replScale, e.seed)
		in.dense = makeSchedule(in.d, 1024, mixedBatch, e.seed)
		in.reads = readSchedule(readRate, span, in.d.N(), e.seed)
	default:
		return nil, fmt.Errorf("no inputs for workload %q", e.workload)
	}
	for _, b := range in.dense {
		in.bodies = append(in.bodies, denseBody(b))
	}
	for _, b := range in.keyed {
		in.bodies = append(in.bodies, keyedBody(b))
	}
	if in.keyed != nil {
		return in, writeKeyed(in.graphFile, in.d)
	}
	return in, writeCSR(in.graphFile, in.d)
}

// hash fingerprints the inputs: the graph file, every apply body in
// schedule order and every read in schedule order.
func (in *inputs) hash() (string, error) {
	h := sha256.New()
	b, err := os.ReadFile(in.graphFile)
	if err != nil {
		return "", err
	}
	h.Write(b)
	for _, body := range in.bodies {
		h.Write(body)
		h.Write([]byte{'\n'})
	}
	var buf bytes.Buffer
	for _, r := range in.reads {
		fmt.Fprintf(&buf, "%d %s\n", r.Due, r.Path)
	}
	h.Write(buf.Bytes())
	return hex.EncodeToString(h.Sum(nil)), nil
}
