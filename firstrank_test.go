package dfpr

import (
	"context"
	"errors"
	"testing"
)

// TestFirstRankBookkeeping pins what the first convergence reports, through
// the public API: it advances exactly the versions Behind counted before the
// call (every one, the initial version included), and it does not count in
// Stats().Refreshes. That holds
// for a fresh engine, for one reopened from its rank-less seed checkpoint
// with a replayed tail, and for a first Rank retried after a canceled one,
// which leaves the engine unranked.
func TestFirstRankBookkeeping(t *testing.T) {
	batches := [][]Edge{
		{{U: 0, V: 5}, {U: 5, V: 1}},
		{{U: 2, V: 7}},
		{{U: 7, V: 3}, {U: 3, V: 0}},
	}
	build := func(t *testing.T, opts ...Option) *Engine {
		t.Helper()
		eng, err := New(8, ringEdges(8), append(opts, WithThreads(2), WithTolerance(growthTol))...)
		if err != nil {
			t.Fatal(err)
		}
		for _, ins := range batches {
			if _, err := eng.Apply(context.Background(), nil, ins); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T) *Engine
		// cancelFirst runs a first Rank on a canceled context before the
		// one that converges.
		cancelFirst bool
	}{
		{name: "Fresh", open: func(t *testing.T) *Engine { return build(t) }},
		{name: "ReopenedSeedCheckpoint", open: func(t *testing.T) *Engine {
			dir := t.TempDir()
			if err := build(t, WithDurability(dir)).Close(); err != nil {
				t.Fatal(err)
			}
			eng, err := New(0, nil, WithDurability(dir), WithThreads(2), WithTolerance(growthTol))
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}},
		{name: "CanceledThenRetried", open: func(t *testing.T) *Engine { return build(t) }, cancelFirst: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := tc.open(t)
			defer eng.Close()
			if got := eng.Version(); got != uint64(len(batches)) {
				t.Fatalf("version %d before the first Rank, want %d", got, len(batches))
			}
			if tc.cancelFirst {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				behind := eng.Behind()
				res, err := eng.Rank(ctx)
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("first Rank on a canceled context: %v", err)
				}
				if res == nil || res.Advanced != 0 {
					t.Fatalf("canceled first Rank reported %+v, want nothing advanced", res)
				}
				if _, err := eng.View(); !errors.Is(err, ErrNoRanks) {
					t.Fatalf("View after a canceled first Rank: %v, want ErrNoRanks", err)
				}
				if got := eng.Behind(); got != behind {
					t.Fatalf("behind %d after a canceled first Rank, want %d", got, behind)
				}
			}
			behind := eng.Behind()
			res, err := eng.Rank(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			st := eng.Stats()
			t.Logf("behind=%d advanced=%d refreshes=%d", behind, res.Advanced, st.Refreshes)
			if behind != uint64(len(batches))+1 {
				t.Errorf("behind %d before the first Rank, want every version (%d)", behind, len(batches)+1)
			}
			if uint64(res.Advanced) != behind {
				t.Errorf("first Rank advanced %d versions, Behind reported %d", res.Advanced, behind)
			}
			if st.Refreshes != 0 {
				t.Errorf("first Rank counted %d refreshes, want 0", st.Refreshes)
			}
			if res.Seq != eng.Version() || eng.Behind() != 0 {
				t.Errorf("first Rank landed at %d (behind %d), want the newest version %d", res.Seq, eng.Behind(), eng.Version())
			}
		})
	}
}
