package avec

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestF64LoadStoreRoundTrip(t *testing.T) {
	v := NewF64(8)
	values := []float64{0, 1, -1, math.Pi, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	for i, x := range values {
		v.Store(i, x)
	}
	for i, want := range values {
		if got := v.Load(i); got != want {
			t.Errorf("Load(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestF64NaNRoundTrip(t *testing.T) {
	v := NewF64(1)
	v.Store(0, math.NaN())
	if !math.IsNaN(v.Load(0)) {
		t.Error("NaN did not survive the bit-cast round trip")
	}
}

func TestF64RoundTripProperty(t *testing.T) {
	v := NewF64(1)
	f := func(x float64) bool {
		v.Store(0, x)
		return v.Load(0) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestF64OfSharesElements: a vector made by F64Of reads the plain stores
// made before it, and its stores show in the slice after it.
func TestF64OfSharesElements(t *testing.T) {
	xs := []float64{0.5, math.Pi, -1}
	v := F64Of(xs)
	for i, want := range []float64{0.5, math.Pi, -1} {
		if got := v.Load(i); got != want {
			t.Errorf("Load(%d) = %v, want %v", i, got, want)
		}
	}
	v.Store(1, 2)
	if xs[1] != 2 {
		t.Errorf("xs[1] = %v after Store(1, 2)", xs[1])
	}
}

func TestF64ConcurrentAddIsExact(t *testing.T) {
	v := NewF64(1)
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v.Add(0, 1)
			}
		}()
	}
	wg.Wait()
	if got := v.Load(0); got != workers*perWorker {
		t.Errorf("CAS add lost updates: %v", got)
	}
}

func flagKinds(n int) map[string]*Flags {
	return map[string]*Flags{"bitset": NewFlags(n)}
}

// countSet counts the set flags through Get.
func countSet(f *Flags) int {
	c := 0
	for i := 0; i < f.Len(); i++ {
		if f.Get(i) {
			c++
		}
	}
	return c
}

func TestFlagVecBasics(t *testing.T) {
	for name, f := range flagKinds(130) {
		t.Run(name, func(t *testing.T) {
			if !f.AllClear() || countSet(f) != 0 {
				t.Fatal("fresh vector not clear")
			}
			if !f.Set(0) {
				t.Error("first Set did not report transition")
			}
			if f.Set(0) {
				t.Error("second Set reported transition")
			}
			f.Set(64)
			f.Set(129)
			if countSet(f) != 3 {
				t.Errorf("Count = %d, want 3", countSet(f))
			}
			if f.AllClear() {
				t.Error("AllClear with set flags")
			}
			if !f.Clear(64) {
				t.Error("Clear did not report transition")
			}
			if f.Clear(64) {
				t.Error("double Clear reported transition")
			}
			if !f.Get(0) || f.Get(64) || !f.Get(129) {
				t.Error("Get disagrees with Set/Clear history")
			}
			f.Reset()
			if !f.AllClear() || countSet(f) != 0 {
				t.Error("Reset did not clear")
			}
			f.SetAll()
			if countSet(f) != 130 || f.AllClear() {
				t.Errorf("SetAll: count=%d", countSet(f))
			}
		})
	}
}

func TestFlagVecSetAllBoundary(t *testing.T) {
	// Lengths around the 64-bit word boundary must not leave stray bits that
	// break AllClear.
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129} {
		for name, f := range flagKinds(n) {
			f.SetAll()
			if countSet(f) != n {
				t.Errorf("%s n=%d: Count after SetAll = %d", name, n, countSet(f))
			}
			for i := 0; i < n; i++ {
				f.Clear(i)
			}
			if !f.AllClear() {
				t.Errorf("%s n=%d: not clear after clearing all", name, n)
			}
		}
	}
}

func TestFlagVecMatchesModelProperty(t *testing.T) {
	// Random Set/Clear sequences must leave the vector agreeing with a plain
	// slice model.
	f := func(ops []uint16, seed int64) bool {
		const n = 97
		model := make([]bool, n)
		vecs := flagKinds(n)
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			i := int(op) % n
			set := rng.Intn(2) == 0
			for _, v := range vecs {
				if set {
					v.Set(i)
				} else {
					v.Clear(i)
				}
			}
			model[i] = set
		}
		count := 0
		for _, b := range model {
			if b {
				count++
			}
		}
		for name, v := range vecs {
			if countSet(v) != count {
				t.Logf("%s count mismatch", name)
				return false
			}
			for i := 0; i < n; i++ {
				if v.Get(i) != model[i] {
					t.Logf("%s bit %d mismatch", name, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFlagVecConcurrentTransitionsCountExactly(t *testing.T) {
	// Under concurrent hammering on the same flag, exactly one Set per
	// clear→set transition may report true — this is the property the
	// helping protocol relies on.
	for name, f := range flagKinds(1) {
		t.Run(name, func(t *testing.T) {
			const workers = 8
			const rounds = 500
			var wg sync.WaitGroup
			transitions := make([]int, workers)
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						if f.Set(0) {
							transitions[w]++
						}
						if f.Clear(0) {
							transitions[w]--
						}
					}
				}(w)
			}
			wg.Wait()
			total := 0
			for _, n := range transitions {
				total += n
			}
			want := 0
			if f.Get(0) {
				want = 1
			}
			if total != want {
				t.Errorf("net transitions = %d, final state wants %d", total, want)
			}
			if c := countSet(f); c != want {
				t.Errorf("Count = %d, final state wants %d", c, want)
			}
		})
	}
}

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatal("zero value not zero")
	}
	if c.Add(5) != 5 || c.Add(3) != 8 {
		t.Error("Add arithmetic wrong")
	}
	c.Store(2)
	if c.Load() != 2 {
		t.Error("Store/Load mismatch")
	}
	if !c.CompareAndSwap(2, 7) || c.CompareAndSwap(2, 9) {
		t.Error("CAS semantics wrong")
	}
	if c.Load() != 7 {
		t.Error("CAS result wrong")
	}
}

func TestFlagVecNextSetBasics(t *testing.T) {
	for name, f := range flagKinds(200) {
		t.Run(name, func(t *testing.T) {
			if got := f.NextSet(0, 200); got != 200 {
				t.Fatalf("empty vector: NextSet = %d, want 200", got)
			}
			for _, i := range []int{0, 63, 64, 65, 127, 128, 199} {
				f.Set(i)
			}
			want := []int{0, 63, 64, 65, 127, 128, 199}
			got := []int{}
			for v := f.NextSet(0, 200); v < 200; v = f.NextSet(v+1, 200) {
				got = append(got, v)
			}
			if len(got) != len(want) {
				t.Fatalf("scan found %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("scan found %v, want %v", got, want)
				}
			}
			// Limit excludes a set flag at the boundary.
			if v := f.NextSet(129, 199); v != 199 {
				t.Errorf("NextSet(129, 199) = %d, want 199 (limit)", v)
			}
			// A hit in the same word as from but past limit must clamp.
			if v := f.NextSet(130, 190); v != 190 {
				t.Errorf("NextSet(130, 190) = %d, want 190", v)
			}
			// Negative from clamps to zero.
			if v := f.NextSet(-5, 200); v != 0 {
				t.Errorf("NextSet(-5, 200) = %d, want 0", v)
			}
			// Empty range.
			if v := f.NextSet(64, 64); v != 64 {
				t.Errorf("NextSet(64, 64) = %d, want 64", v)
			}
		})
	}
}

func TestFlagVecNextSetMatchesGetModel(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		vecs := flagKinds(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				for _, v := range vecs {
					v.Set(i)
				}
			}
		}
		from := rng.Intn(n)
		limit := from + rng.Intn(n-from)
		for name, v := range vecs {
			want := limit
			for i := from; i < limit; i++ {
				if v.Get(i) {
					want = i
					break
				}
			}
			if got := v.NextSet(from, limit); got != want {
				t.Fatalf("%s trial %d: NextSet(%d, %d) = %d, want %d",
					name, trial, from, limit, got, want)
			}
		}
	}
}

func TestFlagVecNextSetConcurrentSmoke(t *testing.T) {
	// NextSet must be safe against concurrent Set: it may or may not see a
	// flag set while it scans, but it must never return an index outside
	// [from, limit] and never a clear-and-never-set index.
	for name, f := range flagKinds(512) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(1))
				for {
					select {
					case <-stop:
						return
					default:
						f.Set(rng.Intn(512))
					}
				}
			}()
			for i := 0; i < 2000; i++ {
				v := f.NextSet(0, 512)
				if v < 0 || v > 512 {
					t.Fatalf("NextSet out of range: %d", v)
				}
				if v < 512 && !f.Get(v) {
					t.Fatalf("NextSet returned clear flag %d", v)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
