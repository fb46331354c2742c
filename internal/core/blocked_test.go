package core

import "testing"

func TestBlockedSweepResultCounters(t *testing.T) {
	in := cacheFixture(t)
	cfg := testCfg()

	res := Run(AlgoDFBB, in, cfg)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.SweepBlocks <= 0 {
		t.Errorf("DFBB run reported %d sweep blocks", res.SweepBlocks)
	}
	if res.FrontierScanned <= 0 {
		t.Errorf("DFBB run reported %d frontier-scanned vertices", res.FrontierScanned)
	}

	// Static variants have no frontier: they sweep every vertex and the
	// scan path must stay off.
	res = Run(AlgoStaticBB, Input{GNew: in.GNew}, cfg)
	if res.SweepBlocks <= 0 {
		t.Errorf("static run reported %d sweep blocks", res.SweepBlocks)
	}
	if res.FrontierScanned != 0 {
		t.Errorf("static run reported %d frontier-scanned vertices, want 0", res.FrontierScanned)
	}
}

// TestBlockedRaceSmoke drives the frontier scan paths with many workers so
// `go test -race -cpu 1,2,4` exercises the NextSet loops under contention
// with mid-pass marking. The lock-free sweeps scan VA alone, so a vertex
// left flagged in RC but outside VA would never be visited again and the
// run would end unconverged at MaxIter; four-vertex chunks put the most
// workers on the most chunk boundaries.
func TestBlockedRaceSmoke(t *testing.T) {
	in := cacheFixture(t)
	for _, a := range []Algo{AlgoDFBB, AlgoDFLF, AlgoDTLF} {
		for _, chunk := range []int{4, 64} {
			cfg := testCfg()
			cfg.Threads, cfg.Chunk = 8, chunk
			res := Run(a, in, cfg)
			if res.Err != nil {
				t.Fatalf("%v chunk=%d: %v", a, chunk, res.Err)
			}
			if !res.Converged {
				t.Errorf("%v chunk=%d: did not converge", a, chunk)
			}
		}
	}
}
