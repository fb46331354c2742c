//go:build linux && (amd64 || arm64)

package sched

import (
	"math/rand/v2"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// A worker is judged once per cpuWindow of wall time, and counts as starved
// when its thread was on a CPU for less than cpuShare of it. Two threads
// time-slicing one CPU read ≈ 0.5 over any window that spans a few scheduler
// slices (≈ 1.5–3 ms each); a worker that merely shares its CPU with short
// request handlers reads above 0.9.
const (
	cpuWindow = 6 * time.Millisecond
	cpuShare  = 0.75
)

// cpuSet is a sched_setaffinity mask: 1024 CPUs, glibc's cpu_set_t.
type cpuSet [16]uint64

// CPUWatch lets a compute-bound worker notice that its thread is being
// time-sliced on one CPU while the process is allowed CPUs it has no worker
// for, and move there. The Go runtime leaves thread placement to the kernel,
// and a kernel that does not balance load — a cpuset with
// sched_load_balance=0, as sandboxes and some container hosts configure it —
// leaves every thread on the CPU it last ran on: two processes' workers can
// then time-slice one CPU, refresh after refresh, while the CPU next to them
// idles, and whether they do is decided by where their threads happened to
// start (DESIGN §2, "Deviations worth knowing", has the measurements).
//
// A watch belongs to the goroutine that created it, which stays locked to
// its OS thread until Close. The nil watch is valid and does nothing.
type CPUWatch struct {
	allowed cpuSet
	cpus    []int
	wall    time.Time
	cpu     int64
	moves   int
}

// WatchCPU starts a watch for the calling goroutine, one of `workers`
// compute-bound goroutines. It returns nil — nothing to move to — unless
// both the thread's affinity mask and GOMAXPROCS exceed workers.
func WatchCPU(workers int) *CPUWatch {
	if runtime.GOMAXPROCS(0) <= workers {
		return nil
	}
	w := &CPUWatch{}
	if !getAffinity(&w.allowed) {
		return nil
	}
	for c := 0; c < len(w.allowed)*64; c++ {
		if w.allowed[c/64]&(1<<(c%64)) != 0 {
			w.cpus = append(w.cpus, c)
		}
	}
	if len(w.cpus) <= workers {
		return nil
	}
	runtime.LockOSThread()
	w.wall, w.cpu = time.Now(), threadCPUTime()
	return w
}

// Tick is called between units of work (a pass over the vertices). Once per
// cpuWindow it compares the thread's CPU time with the wall time; a starved
// thread pins itself to one allowed CPU drawn at random and at once restores
// its full mask, so it migrates but stays free to be balanced. The draw may
// name the CPU the thread is already on: that is the damping which keeps two
// starved workers from swapping CPUs in lockstep.
func (w *CPUWatch) Tick() {
	if w == nil {
		return
	}
	now := time.Now()
	wall := now.Sub(w.wall)
	if wall < cpuWindow {
		return
	}
	cpu := threadCPUTime()
	if float64(cpu-w.cpu) < cpuShare*float64(wall) {
		var one cpuSet
		c := w.cpus[rand.IntN(len(w.cpus))]
		one[c/64] = 1 << (c % 64)
		if setAffinity(&one) {
			setAffinity(&w.allowed)
			w.moves++
		}
		now, cpu = time.Now(), threadCPUTime()
	}
	w.wall, w.cpu = now, cpu
}

// Close ends the watch and unlocks the goroutine from its thread.
func (w *CPUWatch) Close() {
	if w != nil {
		runtime.UnlockOSThread()
	}
}

func getAffinity(s *cpuSet) bool {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	return errno == 0
}

func setAffinity(s *cpuSet) bool {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	return errno == 0
}

// threadCPUTime is CLOCK_THREAD_CPUTIME_ID in nanoseconds.
func threadCPUTime() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
