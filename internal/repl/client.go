package repl

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dfpr/internal/wal"
)

// ErrBehindFloor is the terminal client error: the replica's applied
// position fell behind the writer's pruning floor mid-life, so the tail it
// needs no longer exists and only a fresh bootstrap (a new engine) can
// rejoin.
var ErrBehindFloor = fmt.Errorf("repl: replica fell behind the writer's retention floor")

// Event is one streamed record plus the writer-clock time it was sent —
// the basis for replica lag-seconds estimates.
type Event struct {
	Rec    wal.Record
	SentAt time.Time
}

// recordBuffer is the capacity of a client's record channel: how far the
// stream may run ahead of the apply loop draining it.
const recordBuffer = 1024

// ClientOptions configure Dial.
type ClientOptions struct {
	// URL is the writer's feed endpoint, e.g. http://host:port/v1/feed.
	URL string
	// From is the caller's applied sequence at dial time; the stream delivers
	// records From+1 onward (bootstrapping from a checkpoint when the writer
	// pruned past From).
	From uint64
	// Bootstrap requests a checkpoint snapshot on the initial connect even
	// when From is at or above the writer's floor — the first dial of a
	// replica that holds no state at all and needs the writer's seeded
	// version. Reconnects never re-request it.
	Bootstrap bool
	// Backoff is the initial reconnect delay, doubling to 16x (default
	// 100ms).
	Backoff time.Duration
	// Logger receives reconnect noise (nil: silent).
	Logger *slog.Logger
}

// ClientStats is a point-in-time view of a client's replication progress.
type ClientStats struct {
	// Connected reports a currently open stream; Connects counts every
	// stream ever opened.
	Connected bool
	Connects  int64
	// TipSeq is the writer's last advertised sequence; TipAt the newest
	// writer-clock time a record or heartbeat frame carried (the Unix epoch
	// before the first frame). Only the writer's clock reaches it.
	TipSeq uint64
	TipAt  time.Time
	// DeliveredSeq is the last record sequence handed to Records().
	DeliveredSeq uint64
	// Err is the terminal error, if the client stopped for good.
	Err error
}

// Client follows a writer's feed: it dials, hands back the bootstrap
// snapshot (if the writer sent one), and then delivers records in strict
// sequence order on Records(), reconnecting with backoff across writer
// restarts until closed or a terminal condition (ErrBehindFloor, protocol
// damage) ends it.
type Client struct {
	opts   ClientOptions
	boot   *wal.State
	keyed  bool
	recs   chan Event
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu  sync.Mutex
	err error

	connected atomic.Bool
	connects  atomic.Int64
	tipSeq    atomic.Uint64
	tipAt     atomic.Int64
	delivered atomic.Uint64
}

// Dial connects to a feed and performs the bootstrap handshake
// synchronously: when it returns, Bootstrap reports the snapshot to build a
// follower from (nil when the caller's From was recent enough to tail), and
// Records starts delivering. The context governs the whole client lifetime.
func Dial(ctx context.Context, opts ClientOptions) (*Client, error) {
	if opts.Backoff <= 0 {
		opts.Backoff = 100 * time.Millisecond
	}
	c := &Client{
		opts: opts,
		recs: make(chan Event, recordBuffer),
		done: make(chan struct{}),
	}
	c.ctx, c.cancel = context.WithCancel(ctx)
	c.delivered.Store(opts.From)

	resp, hdr, err := c.connect(opts.From, opts.Bootstrap)
	if err != nil {
		c.cancel()
		return nil, err
	}
	c.keyed = hdr.Keyed
	if hdr.Snapshot > 0 {
		st, err := readSnapshot(resp.br, hdr.Snapshot)
		if err != nil {
			resp.body.Close()
			c.cancel()
			return nil, err
		}
		c.boot = st
		c.delivered.Store(st.Seq)
	}
	go c.run(resp)
	return c, nil
}

// Bootstrap returns the snapshot state from the initial handshake, nil when
// the stream was tail-only.
func (c *Client) Bootstrap() *wal.State { return c.boot }

// Keyed reports the writer's key-space flavor from the handshake.
func (c *Client) Keyed() bool { return c.keyed }

// Records is the ordered stream of replicated rounds. It closes when the
// client ends; Stats().Err distinguishes shutdown from terminal failure.
func (c *Client) Records() <-chan Event { return c.recs }

// Stats returns the client's replication progress.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	return ClientStats{
		Connected:    c.connected.Load(),
		Connects:     c.connects.Load(),
		TipSeq:       c.tipSeq.Load(),
		TipAt:        time.Unix(0, c.tipAt.Load()),
		DeliveredSeq: c.delivered.Load(),
		Err:          err,
	}
}

// Close stops the client and waits for its goroutine.
func (c *Client) Close() {
	c.cancel()
	<-c.done
}

type feedConn struct {
	body io.ReadCloser
	br   *bufio.Reader
}

// connect opens one stream from the given position and parses its header.
func (c *Client) connect(from uint64, boot bool) (*feedConn, *feedHeader, error) {
	url := c.opts.URL + "?from=" + strconv.FormatUint(from, 10)
	if boot {
		url += "&boot=1"
	}
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("repl: %w", err)
	}
	// No overall timeout: a feed response lives as long as the stream.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("repl: connect feed: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, nil, fmt.Errorf("repl: feed returned %s: %s", resp.Status, b)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	hdr, err := readHeader(br)
	if err != nil {
		resp.Body.Close()
		return nil, nil, err
	}
	c.connects.Add(1)
	// The header carries no writer time; stamping the local clock here would
	// mix replica-now into TipAt, which lag estimates read as writer-now.
	c.noteTip(hdr.Tip, 0)
	return &feedConn{body: resp.Body, br: br}, hdr, nil
}

// readHeader parses the JSON line opening a feed response.
func readHeader(br *bufio.Reader) (*feedHeader, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("repl: read feed header: %w", err)
	}
	var hdr feedHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("repl: parse feed header: %w", err)
	}
	if hdr.Proto != feedProto {
		return nil, fmt.Errorf("repl: feed protocol %d, want %d", hdr.Proto, feedProto)
	}
	return &hdr, nil
}

// readSnapshot reads and decodes the n-byte bootstrap checkpoint that
// follows a header announcing one.
func readSnapshot(br *bufio.Reader, n int) (*wal.State, error) {
	snap, err := readN(br, nil, n)
	if err != nil {
		return nil, fmt.Errorf("repl: read bootstrap snapshot: %w", err)
	}
	st, err := wal.DecodeState(snap)
	if err != nil {
		return nil, fmt.Errorf("repl: decode bootstrap snapshot: %w", err)
	}
	return st, nil
}

// readN returns head followed by exactly n bytes of r. The buffer grows as
// the bytes arrive, so a forged length costs its sender the bytes it names,
// not the reader an allocation up front.
func readN(r io.Reader, head []byte, n int) ([]byte, error) {
	buf := bytes.NewBuffer(append(make([]byte, 0, len(head)+min(n, 64<<10)), head...))
	if _, err := io.CopyN(buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// run streams the first connection, then reconnects with backoff until the
// context ends or a terminal condition is hit.
func (c *Client) run(conn *feedConn) {
	defer close(c.done)
	defer close(c.recs)
	backoff := c.opts.Backoff
	for {
		c.connected.Store(true)
		err := c.stream(conn)
		c.connected.Store(false)
		conn.body.Close()
		if c.ctx.Err() != nil {
			return
		}
		if err != nil && !retryable(err) {
			c.fail(err)
			return
		}
		if c.opts.Logger != nil {
			c.opts.Logger.Warn("feed disconnected; reconnecting",
				"url", c.opts.URL, "after", c.delivered.Load(), "err", err)
		}
		for {
			select {
			case <-c.ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff < 16*c.opts.Backoff {
				backoff *= 2
			}
			nc, hdr, cerr := c.connect(c.delivered.Load(), false)
			if cerr != nil {
				continue
			}
			if hdr.Snapshot > 0 {
				// The writer pruned past us while we were away; a running
				// follower cannot graft a snapshot.
				nc.body.Close()
				c.fail(ErrBehindFloor)
				return
			}
			conn = nc
			backoff = c.opts.Backoff
			break
		}
	}
}

// stream reads frames from one connection until it breaks.
func (c *Client) stream(conn *feedConn) error {
	for {
		rec, tip, sent, err := readFrame(conn.br)
		if err != nil {
			return err
		}
		if rec == nil {
			c.noteTip(tip, sent)
			continue
		}
		if want := c.delivered.Load() + 1; rec.Seq != want {
			return terminal(fmt.Errorf("repl: feed sequence gap: got %d, want %d", rec.Seq, want))
		}
		c.noteTip(rec.Seq, sent)
		select {
		case c.recs <- Event{Rec: *rec, SentAt: time.Unix(0, sent)}:
			c.delivered.Store(rec.Seq)
		case <-c.ctx.Done():
			return c.ctx.Err()
		}
	}
}

// readFrame reads one feed frame: a record with its writer-clock send time,
// or (rec nil) a heartbeat carrying the writer's tip. A read error is a
// disconnect and retryable; protocol damage is terminal.
func readFrame(br *bufio.Reader) (rec *wal.Record, tip uint64, sent int64, err error) {
	t, err := br.ReadByte()
	if err != nil {
		return nil, 0, 0, err
	}
	if t != frameHeartbeat && t != frameRecord {
		return nil, 0, 0, terminal(fmt.Errorf("repl: unknown feed frame 0x%02x", t))
	}
	var b [16]byte
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return nil, 0, 0, err
	}
	le := binary.LittleEndian
	if t == frameHeartbeat {
		return nil, le.Uint64(b[:8]), int64(le.Uint64(b[8:])), nil
	}
	n, err := wal.FramePayloadLen(b[8:])
	if err != nil {
		return nil, 0, 0, terminal(err)
	}
	frame, err := readN(br, b[8:], n)
	if err != nil {
		return nil, 0, 0, err
	}
	r, _, err := wal.DecodeRecord(frame)
	if err != nil {
		return nil, 0, 0, terminal(err)
	}
	return &r, r.Seq, int64(le.Uint64(b[:8])), nil
}

// terminalErr marks errors reconnecting cannot fix.
type terminalErr struct{ error }

func terminal(err error) error      { return terminalErr{err} }
func retryable(err error) bool      { _, t := err.(terminalErr); return !t }
func (e terminalErr) Unwrap() error { return e.error }

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	if c.opts.Logger != nil {
		c.opts.Logger.Error("replication client stopped", "url", c.opts.URL, "err", err)
	}
}

// noteTip advances the writer-tip watermark (tips can arrive out of order
// across heartbeats and records); atNanos 0 advances the sequence only.
func (c *Client) noteTip(seq uint64, atNanos int64) {
	for {
		cur := c.tipSeq.Load()
		if seq < cur {
			return
		}
		if c.tipSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
	for {
		cur := c.tipAt.Load()
		if atNanos <= cur {
			return
		}
		if c.tipAt.CompareAndSwap(cur, atNanos) {
			return
		}
	}
}
