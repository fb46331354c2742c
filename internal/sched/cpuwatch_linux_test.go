//go:build linux && (amd64 || arm64)

package sched

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// lastCPU is the CPU the calling thread last ran on (field 39 of its stat
// line; the fields after the parenthesised command name are counted from 3).
func lastCPU(t *testing.T) int {
	t.Helper()
	b, err := os.ReadFile("/proc/thread-self/stat")
	if err != nil {
		t.Skipf("no /proc/thread-self: %v", err)
	}
	f := bytes.Fields(b[bytes.LastIndexByte(b, ')')+1:])
	c, err := strconv.Atoi(string(f[36]))
	if err != nil {
		t.Fatalf("stat field 39 %q: %v", f[36], err)
	}
	return c
}

// A worker that shares its CPU with a thread pinned there must end up on
// another CPU, whether or not the kernel balances load; and the thread it
// moved keeps its full affinity mask.
func TestCPUWatchLeavesSharedCPU(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w := WatchCPU(1)
	if w == nil {
		t.Skip("one CPU or one P: nowhere to move")
	}
	defer w.Close()
	home := w.cpus[0]
	var one cpuSet
	one[home/64] = 1 << (home % 64)
	if !setAffinity(&one) || !setAffinity(&w.allowed) {
		t.Skip("sched_setaffinity refused")
	}

	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread() // never unlocked: the pinned thread dies with the goroutine
		if !setAffinity(&one) {
			return
		}
		for !stop.Load() {
		}
	}()
	defer func() { stop.Store(true); <-done }()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for t0 := time.Now(); time.Since(t0) < time.Millisecond; {
		}
		w.Tick()
		if lastCPU(t) != home {
			break
		}
	}
	if c := lastCPU(t); c == home {
		t.Fatalf("still on CPU %d beside a thread pinned there after 5 s (%d moves)", home, w.moves)
	}
	var got cpuSet
	if !getAffinity(&got) || got != w.allowed {
		t.Fatalf("affinity after %d moves = %x, want the full mask %x", w.moves, got[0], w.allowed[0])
	}
}

// A thread that was off-CPU for most of a window is starved by Tick's
// measure: it is moved once, not before the window has passed, and is left
// with the mask it had.
func TestCPUWatchMovesStarvedThread(t *testing.T) {
	w := WatchCPU(1)
	if w == nil {
		t.Skip("one CPU or one P: nowhere to move")
	}
	defer w.Close()
	if !setAffinity(&w.allowed) {
		t.Skip("sched_setaffinity refused")
	}
	w.Tick()
	if w.moves != 0 {
		t.Fatalf("%d moves before a window had passed", w.moves)
	}
	time.Sleep(2 * cpuWindow)
	w.Tick()
	var got cpuSet
	if !getAffinity(&got) || got != w.allowed {
		t.Fatalf("affinity after the move = %x, want the full mask %x", got[0], w.allowed[0])
	}
	if w.moves != 1 {
		t.Fatalf("%d moves after sleeping through two windows, want 1", w.moves)
	}
}

// Workers that already cover every CPU, or every P, have nowhere to go.
func TestCPUWatchOffWithoutSpareCPU(t *testing.T) {
	if w := WatchCPU(runtime.NumCPU()); w != nil {
		w.Close()
		t.Fatal("watch started with as many workers as CPUs")
	}
	var nilWatch *CPUWatch
	nilWatch.Tick()
	nilWatch.Close()
}
