//go:build !(linux && (amd64 || arm64))

package sched

// CPUWatch is the starved-worker watch of cpuwatch_linux.go; where thread
// affinity is not in reach it is always nil and does nothing.
type CPUWatch struct{}

// WatchCPU returns nil on this platform.
func WatchCPU(workers int) *CPUWatch { return nil }

// Tick does nothing.
func (w *CPUWatch) Tick() {}

// Close does nothing.
func (w *CPUWatch) Close() {}
