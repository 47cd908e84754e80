package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"flor.dev/flor/internal/xrand"
)

func TestNewShapeAndLen(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 || a.Dims() != 3 || a.Dim(1) != 3 {
		t.Fatalf("unexpected geometry: len=%d dims=%d", a.Len(), a.Dims())
	}
	s := New()
	if s.Len() != 1 {
		t.Fatalf("scalar tensor should have 1 element, got %d", s.Len())
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(3, 4)
	a.Set(7.5, 2, 1)
	if got := a.At(2, 1); got != 7.5 {
		t.Fatalf("At(2,1) = %g, want 7.5", got)
	}
	if got := a.Data()[2*4+1]; got != 7.5 {
		t.Fatalf("row-major layout violated: data[9] = %g", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with mismatched length did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIsolation(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with source")
	}
	if !Equal(a, a.Clone()) {
		t.Fatal("Clone is not Equal to source")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(42, 0, 1)
	if a.At(0, 1) != 42 {
		t.Fatal("Reshape should share backing data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	if got := Add(a, b).Data(); got[3] != 44 {
		t.Fatalf("Add wrong: %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 9 {
		t.Fatalf("Sub wrong: %v", got)
	}
	if got := Mul(a, b).Data(); got[2] != 90 {
		t.Fatalf("Mul wrong: %v", got)
	}
	if got := Scale(a, 3).Data(); got[1] != 6 {
		t.Fatalf("Scale wrong: %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{5, 5}, 2)
	AddInPlace(a, b)
	if a.Data()[0] != 6 {
		t.Fatalf("AddInPlace wrong: %v", a.Data())
	}
	AxpyInPlace(a, 2, b)
	if a.Data()[1] != 17 {
		t.Fatalf("AxpyInPlace wrong: %v", a.Data())
	}
	ScaleInPlace(a, 0.5)
	if a.Data()[0] != 8 {
		t.Fatalf("ScaleInPlace wrong: %v", a.Data())
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul[%d] = %g, want %g", i, c.Data()[i], w)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with bad inner dims did not panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	rng := xrand.New(1)
	a := Randn(rng, 1, 4, 6)
	b := Randn(rng, 1, 5, 6)
	got := MatMulTransB(a, b)
	want := MatMul(a, Transpose(b))
	if !AllClose(got, want, 1e-12) {
		t.Fatal("MatMulTransB disagrees with MatMul(a, bᵀ)")
	}
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := xrand.New(2)
	a := Randn(rng, 1, 6, 4)
	b := Randn(rng, 1, 6, 5)
	got := MatMulTransA(a, b)
	want := MatMul(Transpose(a), b)
	if !AllClose(got, want, 1e-12) {
		t.Fatal("MatMulTransA disagrees with MatMul(aᵀ, b)")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := xrand.New(3)
	a := Randn(rng, 1, 3, 7)
	if !Equal(Transpose(Transpose(a)), a) {
		t.Fatal("transpose of transpose is not identity")
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{3, -4, 0, 5}, 4)
	if a.Sum() != 4 {
		t.Fatalf("Sum = %g", a.Sum())
	}
	if a.Mean() != 1 {
		t.Fatalf("Mean = %g", a.Mean())
	}
	if math.Abs(a.Norm()-math.Sqrt(50)) > 1e-12 {
		t.Fatalf("Norm = %g", a.Norm())
	}
	if a.MaxAbs() != 5 {
		t.Fatalf("MaxAbs = %g", a.MaxAbs())
	}
}

func TestSoftmaxRowsSumsToOne(t *testing.T) {
	rng := xrand.New(4)
	a := Randn(rng, 3, 5, 9)
	s := SoftmaxRows(a)
	for i := 0; i < 5; i++ {
		sum := 0.0
		for j := 0; j < 9; j++ {
			v := s.At(i, j)
			if v <= 0 || v > 1 {
				t.Fatalf("softmax value out of (0,1]: %g", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

func TestSoftmaxRowsStability(t *testing.T) {
	a := FromSlice([]float64{1000, 1001, 1002}, 1, 3)
	s := SoftmaxRows(a)
	for _, v := range s.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflowed: %v", s.Data())
		}
	}
}

func TestLogSumExpRows(t *testing.T) {
	a := FromSlice([]float64{0, 0, 0}, 1, 3)
	got := LogSumExpRows(a)[0]
	want := math.Log(3)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("LogSumExp = %g, want %g", got, want)
	}
}

func TestArgmaxRows(t *testing.T) {
	a := FromSlice([]float64{1, 9, 3, 8, 2, 4}, 2, 3)
	got := ArgmaxRows(a)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows = %v", got)
	}
}

func TestActivations(t *testing.T) {
	a := FromSlice([]float64{-1, 0, 2}, 3)
	if got := Relu(a).Data(); got[0] != 0 || got[2] != 2 {
		t.Fatalf("Relu = %v", got)
	}
	if got := Sigmoid(Scalar(0)).Item(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Sigmoid(0) = %g", got)
	}
	if got := Tanh(Scalar(0)).Item(); got != 0 {
		t.Fatalf("Tanh(0) = %g", got)
	}
	if got := Gelu(Scalar(0)).Item(); got != 0 {
		t.Fatalf("Gelu(0) = %g", got)
	}
}

func TestConv1DKnownValues(t *testing.T) {
	in := FromSlice([]float64{1, 2, 3, 4}, 1, 4)
	k := FromSlice([]float64{1, 1}, 1, 2)
	out := Conv1D(in, k)
	want := []float64{3, 5, 7}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Fatalf("Conv1D[%d] = %g, want %g", i, out.Data()[i], w)
		}
	}
}

func TestConv1DShapes(t *testing.T) {
	rng := xrand.New(5)
	in := Randn(rng, 1, 3, 10)
	k := Randn(rng, 1, 4, 3)
	out := Conv1D(in, k)
	if out.Dim(0) != 12 || out.Dim(1) != 8 {
		t.Fatalf("Conv1D output shape %v, want [12 8]", out.Shape())
	}
}

func TestRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	r := Rows(a, 1, 3)
	if r.Dim(0) != 2 || r.At(0, 0) != 3 || r.At(1, 1) != 6 {
		t.Fatalf("Rows wrong: %v", r.Data())
	}
	r.Set(0, 0, 0)
	if a.At(1, 0) != 3 {
		t.Fatal("Rows should copy, not alias")
	}
}

func TestRandnDeterministic(t *testing.T) {
	a := Randn(xrand.New(9), 1, 4, 4)
	b := Randn(xrand.New(9), 1, 4, 4)
	if !Equal(a, b) {
		t.Fatal("Randn with same seed differs")
	}
}

func TestXavierUniformBounds(t *testing.T) {
	w := XavierUniform(xrand.New(10), 30, 20)
	limit := math.Sqrt(6.0 / 50.0)
	for _, v := range w.Data() {
		if v < -limit || v >= limit {
			t.Fatalf("Xavier value %g outside [-%g, %g)", v, limit, limit)
		}
	}
	if w.Dim(0) != 30 || w.Dim(1) != 20 {
		t.Fatalf("Xavier shape %v, want [30 20]", w.Shape())
	}
}

// xavierReference is XavierUniform's draw order written out: values drawn
// one output unit's fan-in after another, row-major over (fanOut, fanIn),
// each landing at its transposed place in the (fanIn, fanOut) matrix.
func xavierReference(rng *xrand.RNG, fanIn, fanOut int) []float64 {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	lo, hi := -limit, limit
	out := make([]float64, fanIn*fanOut)
	for o := 0; o < fanOut; o++ {
		for i := 0; i < fanIn; i++ {
			out[i*fanOut+o] = lo + (hi-lo)*rng.Float64()
		}
	}
	return out
}

// TestXavierUniformDrawOrder pins XavierUniform bit for bit against the
// reference loop, and pins that it leaves the generator where the loop
// does: the weights a replayed program builds must be the recorded ones.
func TestXavierUniformDrawOrder(t *testing.T) {
	shapes := [][2]int{{1, 9}, {9, 1}, {1, 64}, {64, 1}, {3, 7}, {32, 64}, {64, 64}, {2048, 1024}}
	for _, seed := range []uint64{0, 1, 42, 0xC1F4} {
		for _, s := range shapes {
			fanIn, fanOut := s[0], s[1]
			rng, ref := xrand.New(seed), xrand.New(seed)
			w := XavierUniform(rng, fanIn, fanOut)
			want := xavierReference(ref, fanIn, fanOut)
			if w.Dims() != 2 || w.Dim(0) != fanIn || w.Dim(1) != fanOut {
				t.Fatalf("XavierUniform(%d, %d) has shape %v", fanIn, fanOut, w.Shape())
			}
			for i, v := range w.Data() {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("seed %d, %dx%d: element %d is %v, the reference loop drew %v", seed, fanIn, fanOut, i, v, want[i])
				}
			}
			if rng.Uint64() != ref.Uint64() {
				t.Fatalf("seed %d, %dx%d: XavierUniform left the generator elsewhere than the reference loop", seed, fanIn, fanOut)
			}
		}
	}
}

// BenchmarkXavierUniform times the initializer on the shapes of the
// benchmark's models (64x64, 32x64) and on two large ones, where the
// transposed write's cache behaviour shows.
func BenchmarkXavierUniform(b *testing.B) {
	for _, s := range [][2]int{{64, 64}, {32, 64}, {512, 512}, {2048, 1024}} {
		b.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(b *testing.B) {
			b.ReportAllocs()
			rng := xrand.New(1)
			for b.Loop() {
				XavierUniform(rng, s[0], s[1])
			}
		})
	}
}

func TestQuickAddCommutative(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		a := Randn(rng, 1, 3, 4)
		b := Randn(rng, 1, 3, 4)
		return Equal(Add(a, b), Add(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMatMulDistributesOverAdd(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		a := Randn(rng, 1, 3, 4)
		b := Randn(rng, 1, 4, 5)
		c := Randn(rng, 1, 4, 5)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		return AllClose(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransposeMatMul(t *testing.T) {
	// (AB)ᵀ == BᵀAᵀ
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		a := Randn(rng, 1, 3, 4)
		b := Randn(rng, 1, 4, 2)
		left := Transpose(MatMul(a, b))
		right := MatMul(Transpose(b), Transpose(a))
		return AllClose(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
