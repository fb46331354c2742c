package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped at the parent's end
		{ID: 5, Parent: 3, Name: "b.inner", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestRecorderChildrenAndUnexplained(t *testing.T) {
	r := newRecorder()
	t0 := r.t0
	root := r.add("update", 7, t0, t0.Add(100*time.Millisecond))
	a := r.child(root, "snapshot.apply", 10*time.Millisecond)
	r.child(a, "graph.delta_merge", 4*time.Millisecond)
	r.child(root, "snapshot.refresh", 70*time.Millisecond)
	r.child(root, "too.long", 50*time.Millisecond)       // only 20 ms of the parent are left
	other := r.add("update", 8, t0, t0.Add(time.Second)) // no children: not in the share
	_ = other

	if got := r.unexplainedShare("update"); math.Abs(got-0) > 1e-9 {
		t.Errorf("unexplained share = %v, want 0 (children fill the parent)", got)
	}
	if r.spans[a-1].Op != 7 {
		t.Errorf("child op = %d, want the parent's 7", r.spans[a-1].Op)
	}
	last := r.spans[len(r.spans)-2]
	if last.dur() != 20*time.Millisecond {
		t.Errorf("over-long child lasted %v inside the parent, want 20ms", last.dur())
	}

	r2 := newRecorder()
	root = r2.add("update", 1, r2.t0, r2.t0.Add(100*time.Millisecond))
	r2.child(root, "core.run", 75*time.Millisecond)
	if got := r2.unexplainedShare("update"); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("unexplained share = %v, want 0.25", got)
	}

	var none *recorder
	if id := none.add("x", 1, t0, t0); id != 0 || none.child(1, "y", time.Second) != 0 || none.unexplainedShare("x") != 0 {
		t.Error("a nil recorder must record nothing")
	}
}
