package dfpr

import (
	"fmt"
	"strings"
	"time"

	"dfpr/internal/core"
	"dfpr/internal/fault"
	"dfpr/internal/telemetry"
	"dfpr/internal/wal"
)

// FaultPlan describes thread delays and crash-stop failures to inject into
// rank computations (the paper's §5.1.6 fault model), for chaos-testing the
// fault tolerance claims through the public API. The zero plan injects
// nothing.
type FaultPlan struct {
	// DelayProb is the probability that a worker sleeps after computing one
	// vertex rank.
	DelayProb float64
	// DelayDur is the sleep duration of one injected delay.
	DelayDur time.Duration
	// CrashWorkers lists worker ids that crash-stop during a run (see
	// CrashSet).
	CrashWorkers []int
	// CrashHorizon bounds the pseudo-random crash point: each crashing
	// worker stops after processing k vertices, k drawn uniformly from
	// [0, CrashHorizon). Zero crashes on the first check.
	CrashHorizon int
	// Seed makes the injection reproducible.
	Seed int64
}

func (p FaultPlan) internal() fault.Plan {
	return fault.Plan{
		DelayProb:    p.DelayProb,
		DelayDur:     p.DelayDur,
		CrashWorkers: p.CrashWorkers,
		CrashHorizon: p.CrashHorizon,
		Seed:         p.Seed,
	}
}

// CrashSet returns k distinct worker ids out of workers, spread evenly, for
// FaultPlan.CrashWorkers.
func CrashSet(k, workers int) []int { return fault.CrashSet(k, workers) }

// The paper's default parameters (§5.1.2), shared by the Engine options
// and the CLI flag defaults.
const (
	// DefaultTolerance is the default iteration tolerance τ (L∞).
	DefaultTolerance = core.DefaultTol
	// DefaultHistory is the default WithHistory bound.
	DefaultHistory = 8
	// DefaultIngestQueue is the default bound on edits queued in the ingest
	// pipeline before Submit reports ErrQueueFull.
	DefaultIngestQueue = 1 << 20
	// DefaultMaxVertices bounds how far the open universe may grow (see
	// WithMaxVertices). Dense ids index arrays, so one edge naming id 4e9
	// would otherwise demand multi-gigabyte allocations; 2²⁷ ≈ 134M
	// vertices comfortably covers the paper's largest graphs. Deliberately
	// equal to gio.DefaultMaxVertices, the same guard at the file-loading
	// entry point — raise both together.
	DefaultMaxVertices = 1 << 27
	// DefaultFsyncInterval is the group-commit cadence of the default
	// batched fsync policy.
	DefaultFsyncInterval = wal.DefaultSyncInterval
)

// settings is the resolved configuration an Engine is built with.
type settings struct {
	cfg     core.Config
	history int
	policy  RankPolicy
	queue   int
	maxN    int
	keyed   bool
	durDir  string
	fsync   FsyncPolicy
	walFS   wal.FS // test hook: fault-injecting filesystem

	// tel is the engine's metrics registry, created by New after the options
	// resolve (it is not an option: every engine has one, and the durable
	// open path needs it before the WAL exists to wire the fsync hook).
	tel *telemetry.Registry
}

func defaultSettings() settings {
	return settings{
		history: DefaultHistory, queue: DefaultIngestQueue, maxN: DefaultMaxVertices,
	}
}

// Option configures an Engine at construction. Options validate eagerly:
// New reports the first invalid option instead of deferring surprises to
// the first Rank.
type Option func(*settings) error

// WithTolerance sets the iteration tolerance τ on the L∞ rank change
// (default 1e-10).
func WithTolerance(tol float64) Option {
	return func(s *settings) error {
		if tol <= 0 {
			return fmt.Errorf("dfpr: tolerance %v must be positive", tol)
		}
		s.cfg.Tol = tol
		return nil
	}
}

// WithFrontierTolerance sets the frontier tolerance τ_f DF-LF uses to
// decide when a rank change is large enough to mark out-neighbours affected
// (default τ/1000).
func WithFrontierTolerance(tol float64) Option {
	return func(s *settings) error {
		if tol <= 0 {
			return fmt.Errorf("dfpr: frontier tolerance %v must be positive", tol)
		}
		s.cfg.FrontierTol = tol
		return nil
	}
}

// WithThreads sets the number of worker goroutines per run (default
// runtime.NumCPU()).
func WithThreads(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("dfpr: thread count %d must be non-negative", n)
		}
		s.cfg.Threads = n
		return nil
	}
}

// WithHistory sizes the ring of views; keep must be positive (the default
// is DefaultHistory, 8). The engine keeps the last keep published rank
// views for ViewAt and Delta. It bounds nothing else: the store folds every
// batch the ranks have not replayed into one pending span, so ranks that
// lag however far catch up by one replay and nothing ever waits for them.
// The ring holds no graph beyond the views' own: a graph snapshot lives
// while it is current, ranked on, or viewed, and consecutive snapshots
// share every row block the batches between them did not touch, so each
// retained view costs one 8n-byte rank vector plus the blocks rebuilt since
// the view before it: a few when ranks land after every batch, close to a
// whole graph when many batches land between two views.
// At the default that is up to 64n bytes of rank vectors (4 MiB at
// n = 2^16, 512 MiB at n = 2^23) and up to 8 graphs on top of the current
// one.
func WithHistory(keep int) Option {
	return func(s *settings) error {
		if keep <= 0 {
			return fmt.Errorf("dfpr: history %d must be positive", keep)
		}
		s.history = keep
		return nil
	}
}

// WithMaxVertices bounds the vertex universe (default DefaultMaxVertices).
// The universe is open — any write may grow it — but dense ids index
// arrays, so an edge naming id 4e9 would otherwise allocate the whole
// range before a single edge lands; writes that would grow past the bound
// fail with ErrTooManyVertices instead (a 400 at the serve layer, never an
// OOM). Raise it deliberately for graphs genuinely that large.
func WithMaxVertices(n int) Option {
	return func(s *settings) error {
		if n <= 0 {
			return fmt.Errorf("dfpr: max vertices %d must be positive", n)
		}
		s.maxN = n
		return nil
	}
}

// WithRankPolicy selects how many published edits make the refresher rank
// behind the ingest loop (default RankImmediate — any unranked round). The
// policy only governs the refresher behind Submit; manual Rank calls are
// always honoured immediately.
func WithRankPolicy(p RankPolicy) Option {
	return func(s *settings) error {
		if err := p.validate(); err != nil {
			return err
		}
		s.policy = p
		return nil
	}
}

// WithIngestQueue bounds how many edits (deleted plus inserted edges) may
// sit in the ingest queue before Submit rejects batches with ErrQueueFull
// (default DefaultIngestQueue). The bound is what turns a writer firehose
// into backpressure instead of unbounded memory growth.
func WithIngestQueue(maxEdits int) Option {
	return func(s *settings) error {
		if maxEdits <= 0 {
			return fmt.Errorf("dfpr: ingest queue bound %d must be positive", maxEdits)
		}
		s.queue = maxEdits
		return nil
	}
}

// FsyncPolicy decides when write-ahead-log appends reach stable storage.
// Construct one with FsyncAlways, FsyncBatched or FsyncNone and install it
// with WithFsync; the zero value behaves like FsyncBatched with the default
// interval.
type FsyncPolicy struct {
	mode     wal.SyncMode
	interval time.Duration
}

// FsyncAlways fsyncs inside every append, before the write is acknowledged:
// zero acknowledged writes are lost on a crash, at the cost of one fsync on
// every apply and ingest round.
func FsyncAlways() FsyncPolicy { return FsyncPolicy{mode: wal.SyncAlways} }

// FsyncBatched fsyncs from a background flusher every interval (group
// commit — the default, with DefaultFsyncInterval): the apply path never
// waits on the disk, and a crash loses at most the last interval of
// acknowledged writes. A non-positive interval means the default.
func FsyncBatched(interval time.Duration) FsyncPolicy {
	return FsyncPolicy{mode: wal.SyncBatched, interval: interval}
}

// FsyncNone never fsyncs on the engine's own initiative — only Flush, Close
// and checkpoints force the data down. The OS decides when appends reach
// media; a crash can lose everything since the last flush.
func FsyncNone() FsyncPolicy { return FsyncPolicy{mode: wal.SyncNone} }

// String names the policy in the spelling ParseFsyncPolicy accepts, so a
// policy printed in logs or a stats page pastes back into the -fsync flag.
func (p FsyncPolicy) String() string {
	switch p.mode {
	case wal.SyncAlways:
		return "always"
	case wal.SyncNone:
		return "none"
	default:
		if p.interval <= 0 || p.interval == DefaultFsyncInterval {
			return "batched"
		}
		return fmt.Sprintf("batched:%v", p.interval)
	}
}

// ParseFsyncPolicy resolves a policy from its flag spelling: "always",
// "none", "batched", or "batched:interval" (e.g. "batched:100ms").
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch {
	case s == "always":
		return FsyncAlways(), nil
	case s == "none":
		return FsyncNone(), nil
	case s == "batched":
		return FsyncBatched(0), nil
	case strings.HasPrefix(s, "batched:"):
		iv, err := time.ParseDuration(s[len("batched:"):])
		if err != nil || iv <= 0 {
			return FsyncPolicy{}, fmt.Errorf("dfpr: bad fsync interval in %q", s)
		}
		return FsyncBatched(iv), nil
	}
	return FsyncPolicy{}, fmt.Errorf("dfpr: unknown fsync policy %q (valid: always, batched[:interval], none)", s)
}

// WithDurability enables the durability subsystem, rooted at dir: every
// published round is appended to a write-ahead log before it becomes
// visible, checkpoints (due once the log past the newest one is as large as
// it) bound replay, and constructing an engine
// over a dir that already holds state recovers it — latest valid
// checkpoint, then the log tail through the incremental apply path,
// tolerating a torn final record. The recovered fixed point matches a cold
// build within the project's L∞ ≤ 1e-12 equivalence bar. One directory
// belongs to one engine at a time; dense (New) and keyed (Open) engines
// leave distinguishable state and refuse to open each other's.
func WithDurability(dir string) Option {
	return func(s *settings) error {
		if dir == "" {
			return fmt.Errorf("dfpr: durability directory must not be empty")
		}
		s.durDir = dir
		return nil
	}
}

// WithFsync sets the WAL fsync policy (default FsyncBatched with
// DefaultFsyncInterval). Only meaningful together with WithDurability.
func WithFsync(p FsyncPolicy) Option {
	return func(s *settings) error {
		s.fsync = p
		return nil
	}
}

// withKeyed marks the engine keyed (set by Open; the key space must exist
// before durable state is recovered, so it is a construction-time fact).
func withKeyed() Option {
	return func(s *settings) error {
		s.keyed = true
		return nil
	}
}

// withWALFS injects a filesystem into the durability layer — the white-box
// test hook behind the fault drills.
func withWALFS(fs wal.FS) Option {
	return func(s *settings) error {
		s.walFS = fs
		return nil
	}
}
