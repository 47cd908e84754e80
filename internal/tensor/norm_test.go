package tensor_test

import (
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

// laneSumSquares is the package comment's four-lane order, written out
// element by element.
func laneSumSquares(x []float64) float64 {
	var lane [4]float64
	m := len(x) - len(x)%4
	for i := 0; i < m; i++ {
		lane[i%4] += float64(x[i] * x[i])
	}
	for _, v := range x[m:] {
		lane[0] += float64(v * v)
	}
	return (lane[0] + lane[1]) + (lane[2] + lane[3])
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
// element-by-element four-lane sum — for every tail length and for a tensor
// the size of a query's model.
func TestNormOrderIsPositional(t *testing.T) {
	var lengths []int
	for n := 0; n <= 9; n++ {
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
				t.Fatalf("n=%d %s: SumSquares = %x, four-lane order gives %x", n, how, math.Float64bits(got), math.Float64bits(want))
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
// lane 0 adds at most ⌈n/4⌉+3 terms and the combine rounds twice, so the
// bound stated is (⌈n/4⌉+6)·u for SumSquares and half that plus u for Norm.
func TestSumSquaresIsAccurate(t *testing.T) {
	const u = 0x1p-53
	f := func(x magnitudes) bool {
		exact := exactSumSquares(x)
		bound := float64((len(x)+3)/4+6) * u
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
// set a warm daemon's weight-norm queries stream).
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
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(bytes))
			for b.Loop() {
				for _, x := range ts {
					x.Norm()
				}
			}
		})
	}
}
