package tensor_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// laneSumSquares is the package comment's sixteen-lane order, written out
// element by element.
func laneSumSquares(x []float64) float64 {
	var lane [16]float64
	for i, v := range x {
		lane[i%16] += float64(v * v)
	}
	var s [8]float64
	for j := range s {
		s[j] = lane[j] + lane[j+8]
	}
	return ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
}

// spread returns n values with full mantissas and magnitudes within 2^±4:
// close enough that no square swamps the rest, so adding them in another
// order rounds the last bits differently.
func spread(seed uint64, n int) []float64 {
	r := xrand.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Ldexp(r.NormFloat64(), r.Intn(9)-4)
	}
	return out
}

// TestNormOrderIsPositional pins the order Norm and SumSquares add in: the
// same values give the same bits at every offset of a backing array, in a
// Clone, and through a value.View of a cached copy, and those bits are the
// element-by-element sixteen-lane sum, on the host's kernel and on the
// portable loop — for every tail length, up to two whole blocks and a tail,
// and for a tensor the size of a query's model.
func TestNormOrderIsPositional(t *testing.T) {
	var lengths []int
	for n := 0; n <= 33; n++ {
		for range 64 { // one draw may round alike in two orders; 64 will not
			lengths = append(lengths, n)
		}
	}
	for i, n := range append(lengths, 70_000) {
		vals := spread(uint64(i)+1, n)
		want := laneSumSquares(vals)
		check := func(how string, x *tensor.Tensor) {
			t.Helper()
			if got := x.SumSquares(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d %s: SumSquares = %x, sixteen-lane order gives %x", n, how, math.Float64bits(got), math.Float64bits(want))
			}
			if got := x.SumSquaresOn(false); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d %s: portable SumSquares = %x, sixteen-lane order gives %x", n, how, math.Float64bits(got), math.Float64bits(want))
			}
			if got := x.Norm(); math.Float64bits(got) != math.Float64bits(math.Sqrt(want)) {
				t.Fatalf("n=%d %s: Norm = %x, want √SumSquares = %x", n, how, math.Float64bits(got), math.Float64bits(math.Sqrt(want)))
			}
		}
		live := tensor.FromSlice(append([]float64(nil), vals...), n)
		check("live", live)
		for off := 1; off < 8; off++ {
			backing := make([]float64, off+n+3)
			copy(backing[off:], vals)
			check("offset", tensor.FromSlice(backing[off:off+n], n))
		}
		check("clone", live.Clone())

		tv := &value.Tensor{T: live}
		v, ok := value.NewView(tv, value.TensorPayload{T: live.Clone()})
		if !ok {
			t.Fatalf("n=%d: NewView refused a same-shaped tensor payload", n)
		}
		if tv.T == live {
			t.Fatalf("n=%d: the view did not lend the payload's tensor", n)
		}
		check("view", tv.T)
		v.End()
	}
}

// rawFloats is a SumSquares input that neither kernel may round apart:
// raw bit patterns (subnormals, ±0, ±Inf, NaNs, values whose squares
// overflow or vanish) mixed with ordinary ones, at lengths 0–40 and 70,000,
// at an offset of 0–7 into a backing array.
type rawFloats struct {
	x   []float64
	off int
}

// specialBits are the float64 patterns the cross-path checks start from.
var specialBits = []uint64{
	0, 1 << 63, // ±0
	0x7ff0000000000000, 0xfff0000000000000, // ±Inf
	0x7ff8000000000000, 0xfff8000000000001, // NaNs
	1, 0x000fffffffffffff, 0x8000000000000001, // subnormals
	0x0010000000000000, 0x1ff0000000000000, // smallest normal; a square that goes subnormal
	0x5fe0000000000000, 0x5ff0000000000000, 0x7fefffffffffffff, // squares near, at and far past overflow
	0x3ff0000000000000, 0xbff0000000000001, 0x3fb999999999999a, // ±1, 0.1
}

func (rawFloats) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(41)
	if r.Intn(16) == 0 {
		n = 70_000
	}
	// One Inf or NaN decides the whole sum, so only a third of the inputs
	// may hold one; the rest must leave every rounding visible.
	raw := r.Intn(3)
	x := make([]float64, n)
	for i := range x {
		switch k := r.Intn(8); {
		case raw == 0 && k == 0:
			x[i] = math.Float64frombits(r.Uint64())
		case raw == 0 && k == 1:
			x[i] = math.Float64frombits(specialBits[r.Intn(len(specialBits))])
		case raw == 1 && k == 0:
			x[i] = math.Float64frombits(r.Uint64() & 0x801fffffffffffff) // ±0, subnormal or tiny
		default:
			x[i] = math.Ldexp(r.NormFloat64(), r.Intn(41)-20)
		}
	}
	return reflect.ValueOf(rawFloats{x, r.Intn(8)})
}

// GoString keeps a failing quick.Check's report to the input's shape: the
// fixed seed reproduces the values.
func (in rawFloats) GoString() string {
	return fmt.Sprintf("rawFloats{n: %d, off: %d}", len(in.x), in.off)
}

// pathsAgree reports whether the AVX2 kernel and the portable loop give the
// same SumSquares for x laid at off into a backing array: the same bits, or
// a NaN on both (no log prints a NaN's payload).
func pathsAgree(t *testing.T, x []float64, off int) bool {
	t.Helper()
	backing := make([]float64, off+len(x)+3)
	copy(backing[off:], x)
	v := tensor.FromSlice(backing[off:off+len(x)], len(x))
	avx2, portable := v.SumSquaresOn(true), v.SumSquaresOn(false)
	if math.Float64bits(avx2) == math.Float64bits(portable) || math.IsNaN(avx2) && math.IsNaN(portable) {
		return true
	}
	t.Logf("n=%d off=%d: AVX2 SumSquares = %x, portable = %x", len(x), off, math.Float64bits(avx2), math.Float64bits(portable))
	return false
}

// TestQuickSumSquaresPaths is the cross-path identity as a property: on
// every rawFloats input the AVX2 kernel and the portable loop agree.
func TestQuickSumSquaresPaths(t *testing.T) {
	if !tensor.HaveAVX2() {
		t.Skip("no AVX2 on this host: SumSquares runs the portable loop only")
	}
	f := func(in rawFloats) bool { return pathsAgree(t, in.x, in.off) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSumSquaresPaths is the cross-path identity over arbitrary bytes: each
// eight bytes are one float64's bits, and off%8 places them in a backing
// array.
func FuzzSumSquaresPaths(f *testing.F) {
	if !tensor.HaveAVX2() {
		f.Skip("no AVX2 on this host: SumSquares runs the portable loop only")
	}
	encode := func(x []float64) []byte {
		b := make([]byte, 0, 8*len(x))
		for _, v := range x {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	for n := 0; n <= 40; n++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(specialBits[(i*7+n)%len(specialBits)])
		}
		f.Add(encode(x), uint8(n%8))
		f.Add(encode(spread(uint64(n)+1, n)), uint8(n%7+1))
	}
	f.Add(encode(spread(1, 70_000)), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, off uint8) {
		x := make([]float64, len(raw)/8)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if !pathsAgree(t, x, int(off%8)) {
			t.Fail()
		}
	})
}

// TestSumSquaresAllocatesNothing pins that the norms a probe reads allocate
// nothing on either kernel: SumSquares' lanes stay on the stack (the AVX2
// kernel is declared not to keep their address), and so do Norm's and
// nn.WeightNorm's over a query-sized model.
func TestSumSquaresAllocatesNothing(t *testing.T) {
	m := nn.NewResidualMLP(xrand.New(7), 32, 64, 64, 8, 10)
	x := tensor.FromSlice(spread(3, 70_000), 70_000)
	check := func(kernel string) {
		for name, f := range map[string]func(){
			"SumSquares":    func() { x.SumSquares() },
			"Norm":          func() { x.Norm() },
			"nn.WeightNorm": func() { nn.WeightNorm(m) },
		} {
			if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
				t.Errorf("%s: %s allocates %.0f times per call, want 0", kernel, name, allocs)
			}
		}
	}
	check(fmt.Sprintf("host kernel (AVX2 %v)", tensor.HaveAVX2()))
	defer tensor.UsePortable()()
	check("portable loop")
}

// TestWeightNormThroughAViewIsTheLiveNorm is the model half of the order
// contract: a log statement that reads a model's weight norm through a view
// of a cached payload gets the bits the live model gives.
func TestWeightNormThroughAViewIsTheLiveNorm(t *testing.T) {
	m := nn.NewResidualMLP(xrand.New(7), 32, 64, 64, 8, 10)
	want := nn.WeightNorm(m)
	st := &opt.State{Tensors: map[string]codec.Dense{}}
	for _, p := range m.Params() {
		st.Tensors[p.Name] = codec.Dense{T: p.Var.Value.Clone()}
	}
	v, ok := value.NewView(&value.Model{M: m}, value.StatePayload{S: st})
	if !ok {
		t.Fatal("NewView refused the model's own state")
	}
	got := nn.WeightNorm(m)
	v.End()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("WeightNorm through a view = %v, live = %v", got, want)
	}
}

// exactSumSquares is Σv² in exact arithmetic: each square of a float64 is
// exact in 106 bits, and the sum of a few hundred of them in 1,200.
func exactSumSquares(x []float64) *big.Float {
	sum := new(big.Float).SetPrec(1200)
	for _, v := range x {
		f := new(big.Float).SetPrec(1200).SetFloat64(v)
		sum.Add(sum, f.Mul(f, f))
	}
	return sum
}

// relErr returns |got - exact| / exact, or |got| when exact is 0.
func relErr(got float64, exact *big.Float) float64 {
	diff := new(big.Float).SetPrec(1200).SetFloat64(got)
	diff.Sub(diff, exact)
	if exact.Sign() == 0 {
		f, _ := diff.Float64()
		return math.Abs(f)
	}
	f, _ := diff.Quo(diff, exact).Float64()
	return math.Abs(f)
}

// magnitudes generates a slice of up to 256 values spread over 2^±60, so
// that no square overflows or goes subnormal.
type magnitudes []float64

func (magnitudes) Generate(r *rand.Rand, _ int) reflect.Value {
	x := make(magnitudes, r.Intn(257))
	for i := range x {
		x[i] = math.Ldexp(r.NormFloat64(), r.Intn(121)-60)
	}
	return reflect.ValueOf(x)
}

// TestSumSquaresIsAccurate checks SumSquares and Norm against an exact sum
// of squares. Every term is non-negative, so the error of a lane that adds k
// rounded squares is at most k·u of the exact sum (u = 2⁻⁵³, first order);
// lane 0 adds the most terms, ⌈n/16⌉, and the combine tree rounds four
// times on every lane's path, so the bound stated is (⌈n/16⌉+4)·u for
// SumSquares — at or below the (⌈n/4⌉+6)·u of the four-lane order it
// replaced, for every n — and half that plus u for Norm.
func TestSumSquaresIsAccurate(t *testing.T) {
	const u = 0x1p-53
	f := func(x magnitudes) bool {
		exact := exactSumSquares(x)
		bound := float64((len(x)+15)/16+4) * u
		ss := tensor.FromSlice(x, len(x)).SumSquares()
		if e := relErr(ss, exact); e > bound {
			t.Logf("n=%d: SumSquares relative error %g > %g", len(x), e, bound)
			return false
		}
		root := new(big.Float).SetPrec(1200).Sqrt(exact)
		if exact.Sign() == 0 {
			root = exact
		}
		if e := relErr(tensor.FromSlice(x, len(x)).Norm(), root); e > bound/2+u {
			t.Logf("n=%d: Norm relative error %g > %g", len(x), e, bound/2+u)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestSumAndMeanAreLeftToRight pins the serial folds that training and the
// committed fixtures' record logs depend on: Sum and Mean add in index
// order, and {1e16, 1, -1e16, 1} shows it (a left fold gives 1; pairs or
// lanes give 0).
func TestSumAndMeanAreLeftToRight(t *testing.T) {
	leftFold := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += v
		}
		return s
	}
	for _, x := range [][]float64{{1e16, 1, -1e16, 1}, spread(99, 70_000)} {
		a := tensor.FromSlice(x, len(x))
		want := leftFold(x)
		if got := a.Sum(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: Sum = %v, left fold = %v", len(x), got, want)
		}
		if got := a.Mean(); math.Float64bits(got) != math.Float64bits(want/float64(len(x))) {
			t.Fatalf("n=%d: Mean = %v, left fold / n = %v", len(x), got, want/float64(len(x)))
		}
	}
	if got := tensor.FromSlice([]float64{1e16, 1, -1e16, 1}, 4).Sum(); got != 1 {
		t.Fatalf("Sum{1e16, 1, -1e16, 1} = %v, a left fold gives 1", got)
	}
}

// BenchmarkNorm measures the kernel over one query model's parameters (the
// residual MLP florperf's query runs record, ~70 K floats, cache-resident)
// and over 72 of them (three runs × 24 epochs, the ~39 MiB payload working
// set a warm daemon's weight-norm queries stream), on the host's kernel and
// on the portable loop.
func BenchmarkNorm(b *testing.B) {
	for _, c := range []struct {
		name   string
		models int
	}{{"model", 1}, {"72models", 72}} {
		var ts []*tensor.Tensor
		bytes := 0
		for i := 0; i < c.models; i++ {
			for _, p := range nn.NewResidualMLP(xrand.New(uint64(i)+1), 32, 64, 64, 8, 10).Params() {
				ts = append(ts, p.Var.Value)
				bytes += 8 * p.Var.Value.Len()
			}
		}
		run := func(b *testing.B) {
			b.SetBytes(int64(bytes))
			for b.Loop() {
				for _, x := range ts {
					x.Norm()
				}
			}
		}
		b.Run(c.name, run)
		b.Run(c.name+"/portable", func(b *testing.B) {
			defer tensor.UsePortable()()
			run(b)
		})
	}
}
