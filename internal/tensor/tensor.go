// Package tensor implements dense float64 tensors and the numerical
// operations required by the autograd and nn packages.
//
// The implementation favours determinism over speed: every operation is
// single-threaded and accumulates in a fixed order, so a training loop
// replayed from a checkpoint reproduces the recorded run bit-for-bit. This
// property is what lets Flor's deferred correctness checks (paper §5.2.2)
// compare record and replay logs with exact equality.
//
// There are two accumulation orders:
//
//   - Norm and SumSquares sum squares in four positional lanes: for n
//     elements and m = n - n%4, element i < m adds to lane i%4 in index
//     order, the tail elements m..n-1 then add to lane 0 in index order,
//     and the result is (s0+s1)+(s2+s3). Each square is rounded before its
//     add (never fused). The order depends only on the values and their
//     indices — not on address, alignment, GOMAXPROCS or GOARCH — so a
//     live tensor, its Clone and a view of a cached copy give the same bits.
//     Four independent chains run at memory speed, not add latency; these
//     are the log statements' reductions (weight and gradient norms).
//   - Every other reduction (Sum, Mean, the dot products in MatMul, …) is
//     a left fold in index order. Training depends on these — autograd's
//     mean loss, and the committed fixtures' recorded sums — so they keep
//     the order they were recorded with.
//
// Initializers are pinned the same way. XavierUniform returns the
// (fanIn, fanOut) matrix a layer multiplies by, drawing its values in the
// order recorded runs drew them — row-major over (fanOut, fanIn) — and
// writing each to its transposed place, so a replay worker builds the
// recorded weights bit for bit without building and transposing a second
// matrix.
package tensor

import (
	"fmt"
	"math"
	"strings"

	"flor.dev/flor/internal/xrand"
)

// Tensor is a dense, row-major float64 tensor. The zero value is an empty
// scalar-less tensor; use the constructors.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape. A nil/empty shape
// yields a scalar (one element).
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Scalar returns a 0-dimensional tensor holding v.
func Scalar(v float64) *Tensor {
	return &Tensor{shape: nil, data: []float64{v}}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Randn fills a new tensor with N(0, std²) variates drawn from rng.
func Randn(rng *xrand.RNG, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * std
	}
	return t
}

// Uniform fills a new tensor with uniform variates in [lo, hi).
func Uniform(rng *xrand.RNG, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + (hi-lo)*rng.Float64()
	}
	return t
}

// XavierUniform returns a (fanIn, fanOut)-shaped weight matrix, the layout
// y = xW multiplies by, initialized with the Glorot/Xavier uniform scheme.
// It draws its U(-limit, limit) values in row-major order over (fanOut,
// fanIn), one output unit's fan-in after another, and writes each straight
// to its place in the (fanIn, fanOut) matrix: the result is the transpose
// of Uniform(rng, -limit, limit, fanOut, fanIn), bit for bit, and leaves
// rng where that call would.
func XavierUniform(rng *xrand.RNG, fanIn, fanOut int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	t := New(fanIn, fanOut)
	for o := 0; o < fanOut; o++ {
		for i := o; i < len(t.data); i += fanOut {
			t.data[i] = -limit + 2*limit*rng.Float64() // Uniform's lo + (hi-lo)*u
		}
	}
	return t
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data exposes the backing slice (row-major). Mutations are visible to the
// tensor; callers that need isolation should Clone first.
func (t *Tensor) Data() []float64 { return t.data }

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set assigns the element at the given indices.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for %d-dimensional tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dimension %d (size %d)", ix, i, t.shape[i]))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// Item returns the sole element of a single-element tensor.
func (t *Tensor) Item() float64 {
	if len(t.data) != 1 {
		panic(fmt.Sprintf("tensor: Item on tensor with %d elements", len(t.data)))
	}
	return t.data[0]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float64, len(t.data))}
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Shapes must match exactly.
func (t *Tensor) CopyFrom(src *Tensor) {
	if !SameShape(t, src) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// Reshape returns a view-free copy header with a new shape over the same
// data. Element counts must match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// Equal reports exact element-wise equality (shapes and data).
func Equal(a, b *Tensor) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	return true
}

// AllClose reports element-wise equality within absolute tolerance tol.
func AllClose(a, b *Tensor, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a compact description, eliding large tensors.
func (t *Tensor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tensor%v", t.shape)
	if len(t.data) <= 8 {
		fmt.Fprintf(&sb, "%v", t.data)
	} else {
		fmt.Fprintf(&sb, "[%g %g ... %g]", t.data[0], t.data[1], t.data[len(t.data)-1])
	}
	return sb.String()
}
