// Package repl is the replication transport: it streams a writer's durable
// WAL to follower engines and elects which node gets to write.
//
// The wire format deliberately reuses the on-disk encodings from
// internal/wal — a replica validates every streamed record with the same
// CRC-framed parser recovery uses, and a bootstrap snapshot is a checkpoint
// file shipped verbatim. A feed response is:
//
//	header line  JSON {"proto":1,"keyed":…,"start":S,"tip":T,"snapshot":N} "\n"
//	snapshot     N bytes of checkpoint state at seq S (N=0 when the caller's
//	             position was at or above the log's floor and it did not
//	             request a bootstrap with boot=1)
//	frames       'r' u64le send-time-unix-nanos, then one CRC-framed record
//	             'h' u64le writer-tip-seq, u64le unix-nanos (heartbeat)
//
// Records arrive in strict sequence order starting at S+1. Heartbeats carry
// the writer's tip so an idle replica can still report lag zero, and their
// timestamps let it estimate lag in seconds without synchronized clocks
// mattering much (the writer's clock is used for both ends of the delta).
//
// Election is a lease file in the shared durability directory, in the
// spirit of metallb's memberlist lease: the writer renews it on a timer,
// replicas watch for expiry, and an expired lease is stolen under an
// O_EXCL lock file so exactly one replica promotes.
package repl

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dfpr/internal/wal"
)

// feedHeader is the JSON line opening every feed response.
type feedHeader struct {
	Proto    int    `json:"proto"`
	Keyed    bool   `json:"keyed"`
	Start    uint64 `json:"start"`
	Tip      uint64 `json:"tip"`
	Snapshot int    `json:"snapshot"`
}

const (
	feedProto       = 1
	feedContentType = "application/x-dfpr-feed"
	frameRecord     = 'r'
	frameHeartbeat  = 'h'
	// DefaultHeartbeat is the idle-stream heartbeat cadence.
	DefaultHeartbeat = time.Second
)

// FeedOptions configure a Feed.
type FeedOptions struct {
	// Keyed tells replicas whether the writer engine resolves string keys;
	// a follower must be built with the same flavor.
	Keyed bool
	// Heartbeat overrides the idle heartbeat cadence (DefaultHeartbeat when
	// zero).
	Heartbeat time.Duration
}

// Feed serves a Log as a long-lived replication stream: checkpoint
// bootstrap for callers behind the pruning floor, then CRC-framed record
// tail-follow from any sequence. It is an http.Handler; mount it wherever
// the writer serves (the engine exposes it at GET /v1/feed).
type Feed struct {
	log  *wal.Log
	opts FeedOptions

	conns   atomic.Int64
	records atomic.Int64
}

// NewFeed returns a feed over log.
func NewFeed(log *wal.Log, opts FeedOptions) *Feed {
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = DefaultHeartbeat
	}
	return &Feed{log: log, opts: opts}
}

// Conns returns the number of streams currently open.
func (f *Feed) Conns() int64 { return f.conns.Load() }

// Records returns the total records streamed across all connections.
func (f *Feed) Records() int64 { return f.records.Load() }

func (f *Feed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var from uint64
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "feed: bad from sequence", http.StatusBadRequest)
			return
		}
		from = v
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "feed: streaming unsupported", http.StatusInternalServerError)
		return
	}

	// Callers behind the floor bootstrap from the newest checkpoint — as do
	// callers that ask for one outright (boot=1: a replica with no state at
	// all, whose from=0 would otherwise tail-only past the writer's seeded
	// version-0 state). The stream then tails from the checkpoint's seq
	// instead of theirs.
	start := from
	var snap *wal.State
	var snapSize int64
	if from < f.log.Floor() || r.URL.Query().Get("boot") == "1" {
		st, err := f.log.LatestCheckpoint()
		if err != nil {
			http.Error(w, "feed: no bootstrap checkpoint: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		snap, snapSize, start = st, wal.StateSize(st), st.Seq
	}
	hdr, err := json.Marshal(feedHeader{
		Proto:    feedProto,
		Keyed:    f.opts.Keyed,
		Start:    start,
		Tip:      f.log.Stats().Seq,
		Snapshot: int(snapSize),
	})
	if err != nil {
		http.Error(w, "feed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", feedContentType)
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(append(hdr, '\n')); err != nil {
		return
	}
	if snap != nil {
		// Streamed in the checkpoint format, not encoded whole: the
		// bootstrap holds the decoded state, never a second copy of it.
		if err := wal.WriteState(w, snap); err != nil {
			return
		}
	}
	fl.Flush()

	f.conns.Add(1)
	defer f.conns.Add(-1)

	sr := f.log.SegmentReader(start)
	hb := time.NewTicker(f.opts.Heartbeat)
	defer hb.Stop()
	ctx := r.Context()
	var buf []byte
	for {
		// Arm the append wakeup before draining so a record landing between
		// the two cannot be missed.
		wake := f.log.AppendWait()
		n := 0
		for {
			rec, err := sr.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				// Pruned past or corrupt: end the stream; the client
				// reconnects and the bootstrap rule takes over.
				return
			}
			buf = buf[:0]
			buf = append(buf, frameRecord)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(time.Now().UnixNano()))
			buf = wal.EncodeRecord(buf, &rec)
			if _, err := w.Write(buf); err != nil {
				return
			}
			n++
			f.records.Add(1)
		}
		if n > 0 {
			fl.Flush()
		}
		select {
		case <-ctx.Done():
			return
		case <-wake:
		case <-hb.C:
			buf = buf[:0]
			buf = append(buf, frameHeartbeat)
			buf = binary.LittleEndian.AppendUint64(buf, f.log.Stats().Seq)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(time.Now().UnixNano()))
			if _, err := w.Write(buf); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
