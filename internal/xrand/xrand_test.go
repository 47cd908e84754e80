package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewStream(7, 1)
	b := NewStream(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different streams produced %d/100 identical draws", same)
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := New(99)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	st := r.State()
	want := make([]uint64, 32)
	for i := range want {
		want[i] = r.Uint64()
	}
	r2 := New(0)
	r2.SetState(st)
	for i, w := range want {
		if got := r2.Uint64(); got != w {
			t.Fatalf("restored stream diverged at draw %d: got %d want %d", i, got, w)
		}
	}
}

func TestClone(t *testing.T) {
	r := New(5)
	r.Uint64()
	c := r.Clone()
	if !r.Equal(c) {
		t.Fatal("clone not Equal to source")
	}
	if r.Uint64() != c.Uint64() {
		t.Fatal("clone diverged from source")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(12)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %g, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %g, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(21)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleMatchesPermSemantics(t *testing.T) {
	a := New(31)
	b := New(31)
	pa := a.Perm(50)
	vals := make([]int, 50)
	for i := range vals {
		vals[i] = i
	}
	b.Shuffle(50, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for i := range vals {
		if vals[i] != pa[i] {
			t.Fatalf("Shuffle and Perm diverge at %d: %d vs %d", i, vals[i], pa[i])
		}
	}
}

func TestIntnUniformityChiSquared(t *testing.T) {
	r := New(77)
	const buckets = 10
	const draws = 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom; critical value at p=0.001 is 27.88.
	if chi2 > 27.88 {
		t.Fatalf("chi-squared = %g, distribution not uniform: %v", chi2, counts)
	}
}

func TestQuickStateRoundTrip(t *testing.T) {
	f := func(seed uint64, draws uint8) bool {
		r := New(seed)
		for i := 0; i < int(draws); i++ {
			r.Uint32()
		}
		st := r.State()
		want := r.Uint64()
		r2 := New(seed + 1)
		r2.SetState(st)
		return r2.Uint64() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// advanceStarts are the generators the Advance tests jump from: seeded
// streams as the training stack makes them, and raw states with an even
// increment no constructor produces (the jump must not rely on PCG's odd
// increment).
func advanceStarts() []*RNG {
	starts := []*RNG{New(0), New(0xC1F4), NewStream(7, 3), NewStream(^uint64(0), ^uint64(0))}
	for _, st := range [][2]uint64{{0x9E3779B97F4A7C15, 0x2545F4914F6CDD1C}, {1, 0}} {
		r := &RNG{state: st[0], inc: st[1]}
		starts = append(starts, r)
	}
	return starts
}

// TestAdvanceMatchesSingleSteps pins the jump against the step it skips:
// from each start, Advance(n) lands where n single steps do, for every n up
// to 2^20.
func TestAdvanceMatchesSingleSteps(t *testing.T) {
	const limit = 1 << 20
	for si, start := range advanceStarts() {
		walk := start.Clone()
		for n := uint64(0); n <= limit; n++ {
			jump := start.Clone()
			jump.Advance(n)
			if !jump.Equal(walk) {
				t.Fatalf("start %d: Advance(%d) is at state %#x, %d single steps at %#x", si, n, jump.state, n, walk.state)
			}
			walk.step()
		}
	}
}

// TestQuickAdvanceComposes pins that jumps add, modulo the period 2^64:
// Advance(a) then Advance(b) is Advance(a+b), whether or not a+b wraps, and
// Advance(0) moves nothing. Float64 draws its two steps after a jump as it
// would have after stepping there.
func TestQuickAdvanceComposes(t *testing.T) {
	f := func(state, inc, a, b uint64) bool {
		two := &RNG{state: state, inc: inc}
		two.Advance(a)
		two.Advance(b)
		one := &RNG{state: state, inc: inc}
		one.Advance(a + b)
		still := &RNG{state: state, inc: inc}
		still.Advance(0)
		return two.Equal(one) && still.state == state && two.Float64() == one.Float64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Sums that wrap past 2^64, and the full period.
	for _, start := range advanceStarts() {
		for _, ab := range [][2]uint64{{^uint64(0), 1}, {^uint64(0), 2}, {1 << 63, 1 << 63}, {^uint64(0), ^uint64(0)}, {3, ^uint64(0) - 1}} {
			two, one := start.Clone(), start.Clone()
			two.Advance(ab[0])
			two.Advance(ab[1])
			one.Advance(ab[0] + ab[1])
			if !two.Equal(one) {
				t.Fatalf("Advance(%#x) then Advance(%#x) is not Advance(%#x)", ab[0], ab[1], ab[0]+ab[1])
			}
		}
	}
}

// TestAdvanceSkipsDraws pins the use the tensor initializers make of it:
// skipping 2n steps skips n Float64 draws.
func TestAdvanceSkipsDraws(t *testing.T) {
	for _, n := range []int{0, 1, 7, 4096} {
		drawn, jumped := New(11), New(11)
		for range n {
			drawn.Float64()
		}
		jumped.Advance(2 * uint64(n))
		if drawn.Float64() != jumped.Float64() {
			t.Fatalf("Advance(2·%d) does not skip %d Float64 draws", n, n)
		}
	}
}
