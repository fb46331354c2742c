package sched

import "testing"

func TestPoolAbortDrains(t *testing.T) {
	p := NewPool(100, 10)
	if _, _, ok := p.Next(); !ok {
		t.Fatal("fresh pool empty")
	}
	p.Abort()
	if !p.Aborted() {
		t.Error("Aborted not reported")
	}
	if _, _, ok := p.Next(); ok {
		t.Error("aborted pool dispensed a chunk")
	}
	// An abort is permanent: Reset rewinds the ticket counter but must not
	// revive the pool, or a barrier-based run would resume work after its
	// context died.
	p.Reset()
	if _, _, ok := p.Next(); ok {
		t.Error("Reset revived an aborted pool")
	}
}

func TestPoolBoundsAbort(t *testing.T) {
	p := NewPoolBounds([]int{0, 5, 100})
	p.Abort()
	if _, _, ok := p.Next(); ok {
		t.Error("aborted bounds pool dispensed a chunk")
	}
}

func TestRoundsAbortEndsTicketStream(t *testing.T) {
	r := NewRoundsBounds([]int{0, 10, 100})
	if _, _, tk := r.Next(); tk != 0 {
		t.Fatalf("first ticket = %d", tk)
	}
	r.Abort()
	if !r.Aborted() {
		t.Error("Aborted not reported")
	}
	if _, _, tk := r.Next(); tk != ^uint64(0) {
		t.Errorf("aborted Rounds returned ticket %d, want MaxUint64", tk)
	}
}

func TestRoundsBoundsAbort(t *testing.T) {
	r := NewRoundsBounds([]int{0, 50, 100})
	r.Abort()
	if lo, hi, tk := r.Next(); tk != ^uint64(0) || lo != 0 || hi != 0 {
		t.Errorf("aborted bounds Rounds returned [%d,%d) ticket %d", lo, hi, tk)
	}
}
