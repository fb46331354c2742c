package dfpr

import (
	"errors"
	"time"

	"dfpr/internal/core"
)

// ErrCanceled is reported by Rank when its context is canceled (or its
// deadline passes) before the run converges. It is a terminal state
// distinct from algorithm failures: every worker goroutine has exited, the
// engine's ranks remain at the last completed version, and the engine stays
// fully usable. errors.Is(err, ErrCanceled) identifies it through any
// wrapping.
var ErrCanceled = core.ErrCanceled

// ErrClosed is returned by operations on an engine after Close.
var ErrClosed = errors.New("dfpr: engine closed")

// ErrNoRanks is returned by Engine.View before the first successful Rank:
// there is no published rank version to serve yet.
var ErrNoRanks = errors.New("dfpr: no ranks published yet")

// ErrVersionEvicted is returned by Engine.ViewAt for a rank version outside
// the engine's retention window (see WithHistory). errors.Is identifies it
// through the wrapping that names the missing version.
var ErrVersionEvicted = errors.New("dfpr: rank version no longer retained")

// ErrTooManyVertices is returned by writes that would grow the vertex
// universe past the WithMaxVertices bound — the guard that turns a stray
// sparse id (one edge naming vertex 4e9 would otherwise allocate the whole
// range) into a client error instead of an out-of-memory kill. errors.Is
// identifies it through the wrapping that names the offending size.
var ErrTooManyVertices = errors.New("dfpr: vertex universe bound exceeded")

// ErrQueueFull is returned by Engine.Submit when accepting the batch would
// push the ingest queue past its WithIngestQueue bound — the backpressure
// signal to retry later (or shed the write). errors.Is identifies it
// through the wrapping that reports the queue state.
var ErrQueueFull = errors.New("dfpr: ingest queue full")

// ErrPending is returned by Ticket.Version while the submission is still
// queued or being coalesced — before Ticket.Done has closed.
var ErrPending = errors.New("dfpr: submission not applied yet")

// ErrNotWriter is returned by the write API (Apply, Submit and their keyed
// forms, Grow) on a follower engine: a replica's graph is the writer's WAL
// replayed in order, so local writes would fork it. Route writes to the
// leader — the serve layer proxies them there automatically. A follower
// promoted to writer (leader failover) stops returning it.
var ErrNotWriter = errors.New("dfpr: engine is a replica; writes go to the leader")

// ErrDurabilityDegraded reports that the durability layer has hit a
// persistent disk failure and stopped logging: the engine keeps applying in
// memory and serving reads (degradation over outage), but writes since the
// failure will not survive a restart. It surfaces through
// Stats().DurabilityStats.Err — wrapping the underlying cause — and from
// Flush/Close/Checkpoint on a degraded engine; errors.Is identifies it
// through the wrapping.
var ErrDurabilityDegraded = errors.New("dfpr: durability degraded, writes no longer logged")

// Result reports the outcome of one Rank call.
type Result struct {
	// Seq is the store version the ranks correspond to.
	Seq uint64
	// Advanced is the number of graph versions this call moved the ranks
	// forward by (0 when the engine was already current).
	Advanced int
	// View is the zero-copy read handle on the computed ranks — the same
	// immutable view Engine.View returns for this version. A Rank that
	// advanced nothing carries the already-published view. It is nil only
	// when the call failed: an aborted run's vector may be mid-iteration
	// and is never exposed.
	View *View
	// Iterations is the number of passes of the final run: every run is
	// lock-free, so this is the highest pass index any worker completed,
	// plus one.
	Iterations int
	// Converged reports whether the tolerance was met before MaxIter.
	Converged bool
	// CrashedWorkers is the number of workers that crash-stopped under an
	// injected FaultPlan.
	CrashedWorkers int
	// Elapsed is the wall-clock time of the final run's passes: the paper's
	// measure (§5.1.5), which starts after the run's vectors are built. The
	// dfpr_rank_refresh_seconds histogram times the whole Rank call's
	// refresh instead, that setup and the ranks' landing included.
	Elapsed time.Duration
}

// Stats is the engine's state and counters at one instant: what the
// /v1/stats endpoint serves (the JSON tags are its keys) and what the
// /metrics series of the same name read. Each counter is a telemetry
// instrument incremented where its event happens; Stats reads it, nothing
// keeps a copy.
type Stats struct {
	// Version is the latest published graph version; RankVersion the version
	// the latest published ranks cover, and Behind how many versions they
	// trail it (see Engine.Behind). Ready reports that ranks exist at all;
	// Vertices and Edges size the graph those ranks were computed on.
	Version     uint64 `json:"version"`
	RankVersion uint64 `json:"rank_version"`
	Behind      uint64 `json:"behind"`
	Ready       bool   `json:"ready"`
	Vertices    int    `json:"vertices"`
	Edges       int    `json:"edges"`
	// Keyed reports an engine-owned key space (Open); Keys counts its keys.
	Keyed bool `json:"keyed"`
	Keys  int  `json:"keys,omitempty"`
	// Refreshes are incremental DF-LF refreshes. Superseded counts the
	// refresher's refreshes canceled under RankImmediate because a newer
	// round was published; the refresh that followed replayed their span.
	Refreshes  int `json:"refreshes"`
	Superseded int `json:"superseded"`
	// QueuedEdits is the number of edits sitting in the ingest queue right
	// now — accepted by Submit, not yet drained into a round. The
	// backpressure gauge a load balancer watches. QueueBound is the
	// WithIngestQueue limit those edits press against (always positive), so
	// a shedding layer can turn depth into a retry hint.
	QueuedEdits int `json:"ingest_queue_depth"`
	QueueBound  int `json:"-"`
	// IngestRounds counts coalescing rounds the pipeline has applied;
	// CoalescedEdits the edits those rounds carried (after merge). Their
	// ratio against writes submitted is the amortisation the pipeline won.
	IngestRounds   int64 `json:"ingest_rounds"`
	CoalescedEdits int64 `json:"coalesced_edits"`
	// DurabilityStats is the write-ahead-log state of a WithDurability
	// engine (zero value, Enabled false, otherwise).
	DurabilityStats
	// ReplicationStats is the cluster-role state of an engine running as a
	// replication writer or replica (zero value, Enabled false, on a
	// standalone engine). See cluster.go.
	ReplicationStats
}

// DurabilityStats is the durable-state gauge of a WithDurability engine.
type DurabilityStats struct {
	// Enabled reports whether the engine has a durability directory.
	Enabled bool `json:"durable,omitempty"`
	// WALSeq is the sequence of the last record appended to the log —
	// equal to the published graph version while the log is healthy.
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// CheckpointSeq is the version of the newest durable checkpoint; replay
	// after a crash starts there.
	CheckpointSeq uint64 `json:"checkpoint_version,omitempty"`
	// LastFsync is when appended records last reached stable storage, in
	// UTC (zero before the first fsync).
	LastFsync time.Time `json:"last_fsync,omitzero"`
	// Recovering is Engine.Recovering, read from the same flag.
	Recovering bool `json:"recovering,omitempty"`
	// Degraded reports the sticky disk-failure state; Err wraps
	// ErrDurabilityDegraded around the cause.
	Degraded bool  `json:"durability_degraded,omitempty"`
	Err      error `json:"-"`
	// ReplayedRecords is how many WAL tail records construction replayed
	// (diagnostic; zero on a fresh directory or checkpoint-exact restart).
	ReplayedRecords int `json:"-"`
}
