package tensor_test

import (
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// initCase is one initializer call: XavierUniform(fanIn, fanOut), or
// Uniform(lo, hi, shape).
type initCase struct {
	xavier        bool
	fanIn, fanOut int
	lo, hi        float64
	shape         []int
}

func randomInit(r *xrand.RNG) initCase {
	if r.Intn(2) == 0 {
		return initCase{xavier: true, fanIn: 1 + r.Intn(9), fanOut: 1 + r.Intn(9)}
	}
	c := initCase{lo: -r.Float64() * 3, hi: r.Float64() * 3, shape: make([]int, r.Intn(4))}
	for i := range c.shape {
		c.shape[i] = 1 + r.Intn(5)
	}
	return c
}

// pending calls the initializer.
func (c initCase) pending(rng *xrand.RNG) *tensor.Tensor {
	if c.xavier {
		return tensor.XavierUniform(rng, c.fanIn, c.fanOut)
	}
	return tensor.Uniform(rng, c.lo, c.hi, c.shape...)
}

// eager draws what the initializer stands for, value by value, in the order
// recorded runs drew it.
func (c initCase) eager(rng *xrand.RNG) *tensor.Tensor {
	if c.xavier {
		limit := math.Sqrt(6.0 / float64(c.fanIn+c.fanOut))
		lo, hi := -limit, limit
		out := make([]float64, c.fanIn*c.fanOut)
		for o := 0; o < c.fanOut; o++ {
			for i := 0; i < c.fanIn; i++ {
				out[i*c.fanOut+o] = lo + (hi-lo)*rng.Float64()
			}
		}
		return tensor.FromSlice(out, c.fanIn, c.fanOut)
	}
	n := 1
	for _, d := range c.shape {
		n *= d
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = c.lo + (c.hi-c.lo)*rng.Float64()
	}
	return tensor.FromSlice(out, c.shape...)
}

// digest renders a tensor's shape and the bits of every value.
func digest(t *tensor.Tensor) string {
	var sb strings.Builder
	fmt.Fprint(&sb, t.Shape())
	for _, v := range t.Data() {
		fmt.Fprintf(&sb, " %x", math.Float64bits(v))
	}
	return sb.String()
}

func floatDigest(v float64) string { return fmt.Sprintf("%x", math.Float64bits(v)) }

// pendingOps are the package's exported operations, each applied to x (the
// tensor under test) and y (a second one of x's shape, from the same kind
// of initializer); r supplies the operation's own arguments. Each returns a
// digest of what it returned, and may change x or y in place.
var pendingOps = []struct {
	name string
	do   func(r *xrand.RNG, x, y *tensor.Tensor) string
}{
	{"Data", func(_ *xrand.RNG, x, _ *tensor.Tensor) string {
		return digest(tensor.FromSlice(x.Data(), x.Shape()...))
	}},
	{"Data write", func(r *xrand.RNG, x, _ *tensor.Tensor) string {
		if d := x.Data(); len(d) > 0 {
			d[r.Intn(len(d))] = r.Float64()
		}
		return ""
	}},
	{"At", func(r *xrand.RNG, x, _ *tensor.Tensor) string { return floatDigest(x.At(index(r, x)...)) }},
	{"Set", func(r *xrand.RNG, x, _ *tensor.Tensor) string { x.Set(r.Float64(), index(r, x)...); return "" }},
	{"Item", func(_ *xrand.RNG, x, _ *tensor.Tensor) string {
		if x.Len() != 1 {
			return "skip"
		}
		return floatDigest(x.Item())
	}},
	{"Len Shape Dims", func(_ *xrand.RNG, x, _ *tensor.Tensor) string { return fmt.Sprint(x.Len(), x.Shape(), x.Dims()) }},
	{"Clone", func(_ *xrand.RNG, x, _ *tensor.Tensor) string {
		c := x.Clone()
		d := digest(c)
		c.Fill(7) // isolation: x keeps its values
		return d
	}},
	{"CopyFrom", func(_ *xrand.RNG, x, y *tensor.Tensor) string { x.CopyFrom(y); return "" }},
	{"CopyFrom into y", func(_ *xrand.RNG, x, y *tensor.Tensor) string { y.CopyFrom(x); return "" }},
	{"CopyFrom self", func(_ *xrand.RNG, x, _ *tensor.Tensor) string { x.CopyFrom(x); return "" }},
	{"Reshape", func(_ *xrand.RNG, x, _ *tensor.Tensor) string {
		v := x.Reshape(x.Len())
		tensor.ScaleInPlace(v, 3) // shares x's values
		return digest(v)
	}},
	{"Zero", func(_ *xrand.RNG, x, _ *tensor.Tensor) string { x.Zero(); return "" }},
	{"Fill", func(r *xrand.RNG, x, _ *tensor.Tensor) string { x.Fill(r.Float64()); return "" }},
	{"Equal", func(_ *xrand.RNG, x, y *tensor.Tensor) string {
		return fmt.Sprint(tensor.Equal(x, y), tensor.Equal(x, x), tensor.Equal(y, x))
	}},
	{"AllClose", func(_ *xrand.RNG, x, y *tensor.Tensor) string { return fmt.Sprint(tensor.AllClose(x, y, 0.5)) }},
	{"String", func(_ *xrand.RNG, x, _ *tensor.Tensor) string { return x.String() }},
	{"Add", func(_ *xrand.RNG, x, y *tensor.Tensor) string { return digest(tensor.Add(x, y)) }},
	{"Add self", func(_ *xrand.RNG, x, _ *tensor.Tensor) string { return digest(tensor.Add(x, x)) }},
	{"Sub", func(_ *xrand.RNG, x, y *tensor.Tensor) string { return digest(tensor.Sub(y, x)) }},
	{"Mul", func(_ *xrand.RNG, x, y *tensor.Tensor) string { return digest(tensor.Mul(x, y)) }},
	{"Scale", func(r *xrand.RNG, x, _ *tensor.Tensor) string { return digest(tensor.Scale(x, r.Float64())) }},
	{"AddInPlace", func(_ *xrand.RNG, x, y *tensor.Tensor) string { tensor.AddInPlace(x, y); return "" }},
	{"AddInPlace into y", func(_ *xrand.RNG, x, y *tensor.Tensor) string { tensor.AddInPlace(y, x); return "" }},
	{"AxpyInPlace", func(r *xrand.RNG, x, y *tensor.Tensor) string { tensor.AxpyInPlace(x, r.Float64(), y); return "" }},
	{"ScaleInPlace", func(r *xrand.RNG, x, _ *tensor.Tensor) string { tensor.ScaleInPlace(x, r.Float64()); return "" }},
	{"Sum Mean", func(_ *xrand.RNG, x, _ *tensor.Tensor) string { return floatDigest(x.Sum()) + floatDigest(x.Mean()) }},
	{"Norm SumSquares MaxAbs", func(_ *xrand.RNG, x, _ *tensor.Tensor) string {
		return floatDigest(x.Norm()) + floatDigest(x.SumSquares()) + floatDigest(x.MaxAbs())
	}},
	{"Apply", func(_ *xrand.RNG, x, _ *tensor.Tensor) string {
		return digest(tensor.Apply(x, math.Exp)) + digest(tensor.Relu(x)) + digest(tensor.Tanh(x)) + digest(tensor.Sigmoid(x)) + digest(tensor.Gelu(x))
	}},
	{"MatMul", func(_ *xrand.RNG, x, y *tensor.Tensor) string {
		if x.Dims() != 2 {
			return "skip"
		}
		return digest(tensor.MatMul(x, tensor.Transpose(y))) + digest(tensor.MatMul(tensor.Transpose(y), x))
	}},
	{"MatMulTransA MatMulTransB", func(_ *xrand.RNG, x, y *tensor.Tensor) string {
		if x.Dims() != 2 {
			return "skip"
		}
		return digest(tensor.MatMulTransA(x, y)) + digest(tensor.MatMulTransB(y, x))
	}},
	{"Transpose", func(_ *xrand.RNG, x, _ *tensor.Tensor) string {
		if x.Dims() != 2 {
			return "skip"
		}
		return digest(tensor.Transpose(x))
	}},
	{"rows", func(r *xrand.RNG, x, _ *tensor.Tensor) string {
		if x.Dims() != 2 {
			return "skip"
		}
		from := r.Intn(x.Dim(0))
		return digest(tensor.SoftmaxRows(x)) + fmt.Sprint(tensor.LogSumExpRows(x), tensor.ArgmaxRows(x)) + digest(tensor.Rows(x, from, x.Dim(0)))
	}},
	{"Conv1D", func(_ *xrand.RNG, x, y *tensor.Tensor) string {
		if x.Dims() != 2 {
			return "skip"
		}
		return digest(tensor.Conv1D(x, y)) + digest(tensor.Conv1D(y, x))
	}},
	{"encode", func(_ *xrand.RNG, x, _ *tensor.Tensor) string {
		w := codec.NewWriter()
		w.Tensor(x)
		return hex.EncodeToString(w.Bytes())
	}},
	{"decode", func(_ *xrand.RNG, x, _ *tensor.Tensor) string {
		w := codec.NewWriter()
		w.Tensor(x)
		got, err := codec.NewReader(w.Bytes()).Tensor()
		if err != nil {
			return err.Error()
		}
		return digest(got)
	}},
	{"CopyInto", func(r *xrand.RNG, x, _ *tensor.Tensor) string {
		src := tensor.Randn(r, 1, x.Shape()...)
		if err := (codec.Dense{T: src}).CopyInto(x); err != nil {
			return err.Error()
		}
		return ""
	}},
	{"CopyInto a view", func(r *xrand.RNG, x, _ *tensor.Tensor) string {
		w := codec.NewWriter()
		w.Tensor(tensor.Randn(r, 1, x.Shape()...))
		d, err := codec.NewReader(w.Bytes()).Dense()
		if err == nil {
			err = d.CopyInto(x)
		}
		if err != nil {
			return err.Error()
		}
		return ""
	}},
	{"CopyInto from x", func(_ *xrand.RNG, x, y *tensor.Tensor) string {
		if err := (codec.Dense{T: x}).CopyInto(y); err != nil {
			return err.Error()
		}
		return ""
	}},
}

func index(r *xrand.RNG, x *tensor.Tensor) []int {
	idx := make([]int, x.Dims())
	for i := range idx {
		idx[i] = r.Intn(x.Dim(i))
	}
	return idx
}

// TestQuickPendingMatchesEager is the pending draw's contract, as a property
// over random initializers and random sequences of the package's exported
// operations: whichever operation touches a pending tensor first — a read,
// a write of one element, a whole overwrite (CopyFrom, Fill, Zero, a codec
// CopyInto that lands first), an encode — a pending tensor and its eagerly
// drawn twin return bit-identical results and end bit-identical, and the
// generators that made them stand at the same state.
func TestQuickPendingMatchesEager(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		r := xrand.New(seed)
		c := randomInit(r)
		initSeed := r.Uint64()
		rp, re := xrand.New(initSeed), xrand.New(initSeed)
		x, y := c.pending(rp), c.pending(rp)
		ex, ey := c.eager(re), c.eager(re)
		if !rp.Equal(re) {
			t.Logf("seed %d: the initializers left the generator elsewhere than the eager draws", seed)
			return false
		}
		var trail []string
		for step := 0; step <= int(steps%6); step++ {
			op := pendingOps[r.Intn(len(pendingOps))]
			argSeed := r.Uint64()
			got := op.do(xrand.New(argSeed), x, y)
			want := op.do(xrand.New(argSeed), ex, ey)
			trail = append(trail, op.name)
			if got != want {
				t.Logf("seed %d, %v: %s returned\n%s\non the pending tensor and\n%s\non the eager one", seed, c, strings.Join(trail, " → "), got, want)
				return false
			}
		}
		if digest(x) != digest(ex) || digest(y) != digest(ey) {
			t.Logf("seed %d, %v: after %s the pending tensors hold other values than the eager ones", seed, c, strings.Join(trail, " → "))
			return false
		}
		return rp.Float64() == re.Float64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFirstReadsDrawOnce pins that readers racing to a pending
// tensor's first access all see the drawn values and the draw is made once.
func TestConcurrentFirstReadsDrawOnce(t *testing.T) {
	want := digest(initCase{xavier: true, fanIn: 48, fanOut: 32}.eager(xrand.New(5)))
	x := tensor.XavierUniform(xrand.New(5), 48, 32)
	before := tensor.DrawnValues()
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				got[i] = digest(x)
			} else {
				got[i] = digest(x.Clone())
			}
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("reader %d saw other values than the eager draw", i)
		}
	}
	if n := tensor.DrawnValues() - before; n != int64(x.Len()) {
		t.Fatalf("%d values drawn for a %d-value tensor", n, x.Len())
	}
}

// TestOverwriteDropsTheDraw pins the two ends of the counter: an overwrite
// before any read — Overwrite, Zero, Fill, CopyFrom, and a codec CopyInto
// from a tensor or from a decoded view — draws nothing, and a read draws
// each value once.
func TestOverwriteDropsTheDraw(t *testing.T) {
	before := tensor.DrawnValues()
	for _, overwrite := range []func(x *tensor.Tensor){
		func(x *tensor.Tensor) { x.Overwrite() },
		func(x *tensor.Tensor) { x.Zero() },
		func(x *tensor.Tensor) { x.Fill(1) },
		func(x *tensor.Tensor) { x.CopyFrom(tensor.New(x.Shape()...)) },
		func(x *tensor.Tensor) { (codec.Dense{T: tensor.New(x.Shape()...)}).CopyInto(x) },
		func(x *tensor.Tensor) {
			w := codec.NewWriter()
			w.Tensor(tensor.New(x.Shape()...))
			d, err := codec.NewReader(w.Bytes()).Dense()
			if err == nil {
				err = d.CopyInto(x)
			}
			if err != nil {
				t.Fatal(err)
			}
		},
	} {
		x := tensor.XavierUniform(xrand.New(1), 16, 8)
		overwrite(x)
		x.Sum()
	}
	if n := tensor.DrawnValues() - before; n != 0 {
		t.Fatalf("overwritten tensors drew %d values", n)
	}
	x := tensor.Uniform(xrand.New(1), 0, 1, 3, 5)
	x.Sum()
	x.Sum()
	if n := tensor.DrawnValues() - before; n != 15 {
		t.Fatalf("two reads of a 15-value tensor drew %d values", n)
	}
}
