package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPoolCoversRangeExactlyOnce(t *testing.T) {
	const n = 10_000
	p := NewPool(n, 64)
	seen := make([]int32, n)
	Run(8, func(w int) {
		for {
			lo, hi, ok := p.Next()
			if !ok {
				return
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d dispensed %d times", i, c)
		}
	}
}

func TestPoolResetAllowsAnotherPass(t *testing.T) {
	p := NewPool(100, 30)
	count := 0
	for {
		_, _, ok := p.Next()
		if !ok {
			break
		}
		count++
	}
	if count != p.NumChunks() {
		t.Fatalf("first pass dispensed %d chunks, want %d", count, p.NumChunks())
	}
	p.Reset()
	if _, _, ok := p.Next(); !ok {
		t.Error("no chunks after Reset")
	}
}

func TestPoolChunkBoundsProperty(t *testing.T) {
	f := func(nRaw, chunkRaw uint16) bool {
		n := int(nRaw)%5000 + 1
		chunk := int(chunkRaw)%512 + 1
		p := NewPool(n, chunk)
		covered := 0
		prevHi := 0
		for {
			lo, hi, ok := p.Next()
			if !ok {
				break
			}
			if lo != prevHi || hi <= lo || hi > n || hi-lo > chunk {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPoolDefaultChunk(t *testing.T) {
	p := NewPool(10, 0)
	if p.Chunk() != DefaultChunk {
		t.Errorf("default chunk = %d", p.Chunk())
	}
}

func TestRoundsAdvanceWithoutBarrier(t *testing.T) {
	r := NewRoundsBounds([]int{0, 30, 60, 90, 100})
	if r.ChunksPerRound() != 4 {
		t.Fatalf("chunks per round = %d", r.ChunksPerRound())
	}
	var rounds []uint64
	var los []int
	for i := 0; i < 9; i++ {
		lo, hi, tk := r.Next()
		if hi <= lo && lo != 90 { // last chunk is [90,100)
			t.Fatalf("bad chunk [%d,%d)", lo, hi)
		}
		if tk != uint64(i) {
			t.Fatalf("ticket %d reported as %d", i, tk)
		}
		rounds = append(rounds, r.Round(tk))
		los = append(los, lo)
	}
	wantRounds := []uint64{0, 0, 0, 0, 1, 1, 1, 1, 2}
	for i, want := range wantRounds {
		if rounds[i] != want {
			t.Errorf("ticket %d: round %d, want %d", i, rounds[i], want)
		}
	}
	if los[0] != 0 || los[4] != 0 || los[8] != 0 {
		t.Errorf("round starts not at 0: %v", los)
	}
}

func TestRoundsTinyRange(t *testing.T) {
	r := NewRoundsBounds([]int{0, 5})
	lo, hi, tk := r.Next()
	if lo != 0 || hi != 5 || r.Round(tk) != 0 {
		t.Errorf("got [%d,%d)@%d", lo, hi, r.Round(tk))
	}
	_, _, tk = r.Next()
	if r.Round(tk) != 1 || r.Issued() != 2 {
		t.Errorf("second ticket round = %d, %d issued", r.Round(tk), r.Issued())
	}
}

func TestStaticRanges(t *testing.T) {
	rs := StaticRanges(10, 3)
	if len(rs) != 3 {
		t.Fatalf("len = %d", len(rs))
	}
	covered := 0
	for i, r := range rs {
		covered += r.Hi - r.Lo
		if i > 0 && rs[i-1].Hi != r.Lo {
			t.Error("ranges not contiguous")
		}
	}
	if covered != 10 {
		t.Errorf("covered %d", covered)
	}
}

func TestBarrierSynchronises(t *testing.T) {
	const parties = 6
	const iterations = 50
	b := NewBarrier(parties)
	var phase int64
	Run(parties, func(w int) {
		for i := 0; i < iterations; i++ {
			cur := atomic.LoadInt64(&phase)
			if cur != int64(i) && cur != int64(i)+1 {
				t.Errorf("worker %d saw phase %d at iteration %d", w, cur, i)
			}
			if err := b.Await(w); err != nil {
				t.Errorf("Await: %v", err)
				return
			}
			if w == 0 {
				atomic.AddInt64(&phase, 1)
			}
			if err := b.Await(w); err != nil {
				t.Errorf("Await: %v", err)
				return
			}
		}
	})
	if phase != iterations {
		t.Errorf("phase = %d", phase)
	}
}

func TestBarrierBreaksOnCrash(t *testing.T) {
	const parties = 4
	b := NewBarrier(parties)
	var broken int64
	Run(parties, func(w int) {
		if w == 0 {
			b.Crash() // worker 0 never arrives
			return
		}
		if err := b.Await(w); errors.Is(err, ErrBroken) {
			atomic.AddInt64(&broken, 1)
		}
	})
	if broken != parties-1 {
		t.Errorf("%d workers saw ErrBroken, want %d", broken, parties-1)
	}
	if !b.Broken() {
		t.Error("barrier does not report broken")
	}
	// Once broken, every later Await fails fast.
	if err := b.Await(1); !errors.Is(err, ErrBroken) {
		t.Error("Await after break did not fail")
	}
}

func TestBarrierCrashAfterSomeWaiting(t *testing.T) {
	// Survivors already blocked in Await must be released when the crash
	// makes completion impossible.
	b := NewBarrier(3)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.Await(i)
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let both block
	b.Crash()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrBroken) {
			t.Errorf("waiter %d: err = %v", i, err)
		}
	}
}

func TestBarrierWaitTimeAttribution(t *testing.T) {
	b := NewBarrier(2)
	done := make(chan struct{})
	go func() {
		b.Await(0) // blocks until the slow worker arrives
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	b.Await(1)
	<-done
	if b.WaitTime(0) < 10*time.Millisecond {
		t.Errorf("worker 0 wait = %v, expected ≥10ms", b.WaitTime(0))
	}
	if b.WaitTime(1) != 0 {
		t.Errorf("last arriver accrued wait %v", b.WaitTime(1))
	}
	if b.TotalWait() != b.WaitTime(0)+b.WaitTime(1) {
		t.Error("TotalWait does not sum per-worker waits")
	}
}

func TestRunExecutesAllWorkers(t *testing.T) {
	var mask int64
	Run(10, func(w int) { atomic.AddInt64(&mask, 1<<uint(w)) })
	if mask != (1<<10)-1 {
		t.Errorf("mask = %b", mask)
	}
	// workers < 1 clamps to 1.
	calls := 0
	Run(0, func(w int) { calls++ })
	if calls != 1 {
		t.Errorf("Run(0) ran %d workers", calls)
	}
}
