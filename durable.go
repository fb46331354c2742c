package dfpr

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dfpr/internal/batch"
	"dfpr/internal/graph"
	"dfpr/internal/snapshot"
	"dfpr/internal/wal"
)

// This file is the engine's one apply path and its durability wiring
// (internal/wal): storeApply is the single point where a batch becomes a
// published version (log-before-publish on durable engines), replay turns
// logged records back into a version through it, and restore rebuilds an
// engine at a checkpoint. Warm restart (recoverDurable), followers
// (Cluster.follow) and promotion (promote) are compositions of those three;
// the rest is background checkpointing off the publish path and the
// observability surface (Recovering, Stats.Durability, Checkpoint).

// durability is the engine's durable-state sidecar.
type durability struct {
	log *wal.Log
	// ckptEvery is the checkpoint cadence in published rank versions.
	ckptEvery uint64

	// mu serialises append-then-apply so log order always equals publication
	// order — the invariant replay depends on. keysLogged (the key-space
	// prefix already made durable) is guarded by it.
	mu         sync.Mutex
	keysLogged int

	lastCkpt atomic.Uint64 // seq of the newest durable checkpoint
	ckptBusy atomic.Bool   // one background checkpoint in flight at a time
	ckptWG   sync.WaitGroup

	// recoverTip is the graph version replay reached before the log was
	// installed; recovering stays set until published ranks catch it.
	recoverTip uint64
	recovering atomic.Bool
	replayed   int // records replayed ahead of installation (diagnostic)
}

// durable returns the engine's durability sidecar, nil while the engine has
// none (volatile engines, and followers until promotion installs it).
func (e *Engine) durable() *durability { return e.dur.Load() }

// HasDurableState reports whether dir holds recoverable engine state from a
// previous WithDurability run — the probe cmd/prserve uses to skip loading
// an input graph when a warm restart will supersede it anyway.
func HasDurableState(dir string) (bool, error) {
	return wal.HasState(dir, nil)
}

// openLog opens the write-ahead log under dir with the engine's fsync
// policy. The fsync histogram is resolved ahead of the log so the hook
// exists for fsyncs issued during recovery.
func openLog(st settings, dir string) (*wal.Log, *wal.Recovered, error) {
	fsyncSeconds := walFsyncHistogram(st.tel)
	return wal.Open(dir, wal.Options{
		Mode: st.fsync.mode, Interval: st.fsync.interval, FS: st.walFS,
		OnFsync: func(d time.Duration) { fsyncSeconds.Observe(d.Seconds()) },
	})
}

// installLog makes the engine the owner of log: every later storeApply
// appends before it publishes. It runs after restore and replay, so the
// sidecar starts from what they left: the key prefix already durable, the
// replayed tip ranks must catch before Recovering clears, and ckptSeq as the
// newest checkpoint.
func (e *Engine) installLog(log *wal.Log, ckptSeq uint64, replayed int) {
	d := &durability{
		log: log, ckptEvery: uint64(e.opts.ckptEvery),
		recoverTip: e.store.Current().Seq, replayed: replayed,
	}
	if e.keys != nil {
		d.keysLogged = e.keys.Len()
	}
	d.lastCkpt.Store(ckptSeq)
	d.recovering.Store(replayed > 0)
	e.dur.Store(d)
	e.initDurabilityTelemetry()
}

// openDurable is New/Open for WithDurability engines: a fresh directory is
// seeded with checkpoint 0 of the newly built engine; a directory with
// state recovers it instead. Persisted state takes precedence over the
// n/edges arguments.
func openDurable(n int, edges []Edge, st settings) (*Engine, error) {
	log, rec, err := openLog(st, st.durDir)
	if err != nil {
		return nil, fmt.Errorf("dfpr: open durability dir: %w", err)
	}
	e, err := func() (*Engine, error) {
		if !rec.HasState {
			return seedDurable(n, edges, st, log)
		}
		return recoverDurable(st, log, rec)
	}()
	if err != nil {
		log.Close()
		return nil, err
	}
	return e, nil
}

// seedDurable builds a fresh engine and writes its version-0 state as the
// seed checkpoint, anchoring all future replay.
func seedDurable(n int, edges []Edge, st settings, log *wal.Log) (*Engine, error) {
	e, err := newEngine(n, edges, st)
	if err != nil {
		return nil, err
	}
	e.installLog(log, 0, 0)
	if err := e.Checkpoint(); err != nil {
		// A directory that cannot take its seed checkpoint would be
		// unrecoverable; refuse to start rather than run silently volatile.
		return nil, fmt.Errorf("dfpr: seed checkpoint: %w", err)
	}
	return e, nil
}

// recoverDurable is the warm restart: restore at the latest valid
// checkpoint, replay the WAL tail on top, then take the log over. The engine
// serves reads at the checkpointed rank version immediately; Recovering
// reports true until a Rank catches the replayed tip (the serve layer holds
// writes off with 503 meanwhile).
func recoverDurable(st settings, log *wal.Log, rec *wal.Recovered) (*Engine, error) {
	e, err := restore(st, rec.Checkpoint)
	var replayed int
	if err == nil {
		replayed, err = e.replay(rec.Tail)
	}
	if err != nil {
		return nil, fmt.Errorf("dfpr: recover %s: %w", st.durDir, err)
	}
	e.installLog(log, rec.Checkpoint.Seq, replayed)
	return e, nil
}

// restore rebuilds an engine at a checkpoint — from the durability
// directory at warm restart, from a feed bootstrap on a follower: store
// sealed at the checkpoint's version with the ranker resumed at the
// checkpointed vector (engineOver), key prefix re-interned in id order, and
// that vector published as the first view, so reads come back at the
// checkpoint's watermark without waiting for a refresh. The caller replays
// whatever was logged past the checkpoint.
func restore(st settings, ck *wal.State) (*Engine, error) {
	if keyedState := len(ck.Keys) > 0; keyedState != st.keyed && (keyedState || ck.Graph.N() > 0) {
		if keyedState {
			return nil, fmt.Errorf("dfpr: checkpoint holds a keyed engine's state — build the engine with Open, not New")
		}
		return nil, fmt.Errorf("dfpr: checkpoint holds a dense-ID engine's state — build the engine with New, not Open")
	}
	if ck.Graph.N() > st.maxN {
		return nil, fmt.Errorf("dfpr: checkpoint holds %d vertices, beyond the bound %d (WithMaxVertices): %w",
			ck.Graph.N(), st.maxN, ErrTooManyVertices)
	}
	if len(ck.Keys) > 0 && len(ck.Keys) < ck.Graph.N() {
		return nil, fmt.Errorf("dfpr: checkpoint covers %d vertices with only %d keys", ck.Graph.N(), len(ck.Keys))
	}
	// The ranker resumes BEFORE any replay: its parent version is then the
	// store's base, so the first Rank refreshes over the replayed span
	// incrementally — the path a live engine several versions behind takes.
	// A rank-less checkpoint leaves it unranked.
	e, err := engineOver(st, snapshot.NewStoreAt(graph.DynamicFromCSR(ck.Graph), st.history, ck.Seq), ck.Ranks)
	if err != nil {
		return nil, err
	}
	if e.keys != nil {
		for i, k := range ck.Keys {
			if id := e.keys.Intern(k); int(id) != i {
				return nil, fmt.Errorf("dfpr: checkpoint repeats key %q", k)
			}
		}
		e.keys.Sync()
	}
	if ck.Ranks != nil {
		e.publishLocked(&Result{Seq: ck.Seq, Converged: true})
	}
	return e, nil
}

// replay publishes a contiguous run of logged records — a WAL tail at warm
// restart or promotion, a drained stretch of the feed on a follower — as ONE
// merged version landing at the run's tip, and hands it to the refresher as
// an ingest round is (handOff). A store version costs a snapshot (two
// block-table copies and a rebuild of every block the batch touched), so
// folding makes the cost independent of the run's length, and the ranker
// refreshes over the merged batch as one coalesced span. Records at or below
// the applied version are skipped (a promoted follower already streamed part
// of the tail); a gap is an error. Each record's key tail is re-interned
// first, in logged order, so ids match the writer's. It returns how many
// records it applied.
func (e *Engine) replay(recs []wal.Record) (int, error) {
	tip := e.store.Current().Seq
	ups := make([]batch.Update, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		if r.Seq <= tip {
			continue
		}
		if r.Seq != tip+1 {
			return 0, fmt.Errorf("dfpr: replay gap: record %d follows version %d", r.Seq, tip)
		}
		tip++
		if len(r.Keys) > 0 {
			if e.keys == nil {
				return 0, fmt.Errorf("dfpr: record %d carries keys but the engine is dense-ID — build it with Open, not New", r.Seq)
			}
			if int(r.KeyBase) != e.keys.Len() {
				return 0, fmt.Errorf("dfpr: record %d logs keys from id %d, key space has %d", r.Seq, r.KeyBase, e.keys.Len())
			}
			for _, k := range r.Keys {
				e.keys.Intern(k)
			}
		}
		ups = append(ups, batch.Update{Del: r.Del, Ins: r.Ins, N: int(r.N)})
	}
	if len(ups) == 0 {
		return 0, nil
	}
	if e.keys != nil {
		e.keys.Sync()
	}
	if _, err := e.storeApply(batch.Merge(ups...), tip); err != nil {
		return 0, err
	}
	e.handOff(tip, nil)
	return len(ups), nil
}

// storeApply is the engine's one publish point: every batch — a public
// Apply, an ingest round, a replayed span — becomes a version here and
// nowhere else. It excludes a concurrent Close without making writers wait
// behind Rank (the read side of closeMu keeps concurrent applies concurrent;
// closed is read under it, so no version is published once Close has taken
// closeMu), appends the WAL record first when the engine owns a log
// (log-before-publish: the record hits the log — and, under FsyncAlways,
// stable storage — before any reader can observe the version), counts the
// publication and advances the version watermark. at is the sequence the
// version lands at, 0 for the next one; only a span that came out of the
// log lands at a given sequence, and it is published without being
// appended again.
//
// On a degraded log the append is a cheap error return and the apply
// proceeds in memory: reads keep working, Stats surfaces
// ErrDurabilityDegraded.
func (e *Engine) storeApply(up batch.Update, at uint64) (uint64, error) {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed.Load() {
		return 0, ErrClosed
	}
	d := e.durable()
	if d != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	cur := e.store.Current()
	nAfter := up.Universe(cur.G.N())
	if d != nil && at == 0 {
		rec := wal.Record{Seq: cur.Seq + 1, N: uint64(nAfter), Del: up.Del, Ins: up.Ins}
		if e.keys != nil && nAfter > d.keysLogged {
			// First durable mention of ids [keysLogged, nAfter): log their keys
			// with the record, so replay re-interns them in the same dense order.
			rec.KeyBase = uint32(d.keysLogged)
			rec.Keys = e.keys.KeysRange(d.keysLogged, nAfter)
			d.keysLogged = nAfter
		}
		// Degradation is deliberate fire-and-continue: the error is sticky in
		// the log and surfaced via Stats; wedging the apply path would turn a
		// disk failure into an outage.
		t0 := time.Now()
		_ = d.log.Append(&rec)
		e.met.walAppend.ObserveSince(t0)
	}
	e.met.notePublished(cur.G.N(), nAfter)
	var next *snapshot.Version
	if at == 0 {
		_, next = e.store.Apply(up)
	} else {
		_, next = e.store.ApplyAt(up, at)
	}
	e.verWM.advance(next.Seq)
	return next.Seq, nil
}

// maybeCheckpointLocked runs at every rank publication (caller holds e.mu):
// it clears the recovering flag once ranks catch the replayed tip, and
// kicks off a background checkpoint when the cadence is due. The checkpoint
// snapshots only immutable data (the view's CSR, rank vector, and the
// append-only key prefix), so it runs without any engine lock.
func (e *Engine) maybeCheckpointLocked(v *View) {
	d := e.durable()
	if d.recovering.Load() && v.seq >= d.recoverTip {
		d.recovering.Store(false)
	}
	if v.seq-d.lastCkpt.Load() < d.ckptEvery || d.log.Degraded() {
		return
	}
	if !d.ckptBusy.CompareAndSwap(false, true) {
		return // previous checkpoint still writing; next publication retries
	}
	st := e.checkpointState(v.seq, v.ver.G, v.ranks)
	d.ckptWG.Add(1)
	go func() {
		defer d.ckptWG.Done()
		defer d.ckptBusy.Store(false)
		t0 := time.Now()
		if d.log.WriteCheckpoint(st) == nil {
			e.met.ckptSeconds.ObserveSince(t0)
			d.noteCheckpoint(st.Seq)
		}
	}()
}

// checkpointState captures graph g at version seq as a checkpoint, with
// ranks converged on it (nil before the first Rank) and the key prefix
// covering its universe (ids are dense in first-mention order, so the first
// N keys are exactly the keys that existed at a version with N vertices).
func (e *Engine) checkpointState(seq uint64, g *graph.CSR, ranks []float64) *wal.State {
	st := &wal.State{Seq: seq, Graph: g, Ranks: ranks}
	if e.keys != nil {
		st.Keys = e.keys.KeysRange(0, g.N())
	}
	return st
}

// noteCheckpoint records a durable checkpoint's seq, keeping the gauge
// monotone under a racing manual Checkpoint and background writer.
func (d *durability) noteCheckpoint(seq uint64) {
	for {
		cur := d.lastCkpt.Load()
		if seq <= cur || d.lastCkpt.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Checkpoint forces a durable checkpoint of the latest published rank
// version (or of the current graph version, rank-less, before the first
// Rank) and prunes the log behind it. The periodic cadence
// (WithCheckpointEvery) makes this unnecessary in steady state; it exists
// for tests, for pre-shutdown compaction, and for callers that just applied
// a bulk load they do not want to replay ever again.
func (e *Engine) Checkpoint() error {
	d := e.durable()
	if d == nil {
		return fmt.Errorf("dfpr: engine has no durability directory (WithDurability)")
	}
	var st *wal.State
	if v := e.latest.Load(); v != nil {
		st = e.checkpointState(v.seq, v.ver.G, v.ranks)
	} else {
		cur := e.store.Current()
		st = e.checkpointState(cur.Seq, cur.G, nil)
	}
	t0 := time.Now()
	if err := d.log.WriteCheckpoint(st); err != nil {
		return fmt.Errorf("%w: %w", ErrDurabilityDegraded, err)
	}
	e.met.ckptSeconds.ObserveSince(t0)
	d.noteCheckpoint(st.Seq)
	return nil
}

// Recovering reports whether the engine is still catching up on state
// replayed at construction: true from a warm restart that found WAL records
// past the checkpoint until a Rank brings published ranks up to the
// replayed tip. Reads serve the checkpointed version meanwhile; the serve
// layer rejects writes with 503 while this holds.
func (e *Engine) Recovering() bool {
	d := e.durable()
	return d != nil && d.recovering.Load()
}
