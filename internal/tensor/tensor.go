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
//   - Norm and SumSquares sum squares in sixteen positional lanes: element
//     i adds to lane i%16 in index order. The lanes combine in one fixed
//     tree: s_j = l_j + l_(j+8) for j < 8, then
//     ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)). Each square is rounded before
//     its add (never fused). The order depends only on the values
//     and their indices — not on address, alignment, GOMAXPROCS, GOARCH or
//     CPU features — so a live tensor, its Clone and a view of a cached
//     copy give the same bits, and a run recorded on one machine logs the
//     same norms when it is replayed on another. On amd64 with AVX2 one
//     assembly kernel fills the lanes, four YMM registers of four lanes
//     each, from the whole blocks of 16; every other host runs a Go loop
//     that fills the same lanes, and the tail (element m+k, m = n - n%16,
//     adds to lane k) and the combine are shared Go code. Sixteen independent
//     chains keep the loop at memory bandwidth, not add latency; these are
//     the log statements' reductions (weight and gradient norms).
//   - Every other reduction (Sum, Mean, the dot products in MatMul, …) is
//     a left fold in index order. Training depends on these — autograd's
//     mean loss, and the committed fixtures' recorded sums — so they keep
//     the order they were recorded with.
//
// Initializers are pinned the same way. XavierUniform returns the
// (fanIn, fanOut) matrix a layer multiplies by, with the values recorded
// runs drew, in the order they drew them — row-major over (fanOut, fanIn),
// each written to its transposed place — so a replay worker builds the
// recorded weights bit for bit without building and transposing a second
// matrix.
//
// Uniform and XavierUniform draw a fixed count of values, so they do not
// draw at once: the tensor they return is pending. It holds its buffer, a
// copy of the generator as the draw found it, the law and the draw order,
// and the caller's generator jumps past the draw (xrand's Advance), so every
// later draw sees the stream an eager draw would have left. The values are
// drawn, bit for bit, on the tensor's first access — any operation, Data,
// At, Clone, an encode. An operation that overwrites the whole tensor
// before anything reads it drops the pending draw instead: Overwrite (a
// restore's copy, or a read laid over the tensor's memory), CopyFrom, Fill
// and Zero. A replay worker whose first restore overwrites its initial
// weights therefore never draws them. Randn stays eager: rejection sampling
// has no fixed draw count. DrawnValues counts the values pending draws made.
package tensor

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"flor.dev/flor/internal/xrand"
)

// Tensor is a dense, row-major float64 tensor. The zero value is an empty
// scalar-less tensor; use the constructors.
type Tensor struct {
	shape []int
	// buf backs the values. Access them through vals, which makes a pending
	// draw first, or through Overwrite, which drops it, before a whole
	// overwrite; buf itself is read or written directly only in a tensor
	// made where it is used, which cannot be pending.
	buf  []float64
	pend atomic.Pointer[pending]
}

// pending is an initializer's draw not made yet: values lo + span·u, u from
// the generator as the draw found it, written in stride passes — pass o
// fills elements o, o+stride, o+2·stride, … — so a stride of 1 is row-major
// and a (fanIn, fanOut) matrix drawn with stride fanOut is filled one
// column after another.
type pending struct {
	mu       sync.Mutex
	rng      xrand.RNG
	lo, span float64
	stride   int
}

// drawn counts the values pending draws have made.
var drawn atomic.Int64

// DrawnValues returns how many values Uniform and XavierUniform tensors
// have drawn in this process. A pending draw counts when its tensor is
// first accessed; one dropped by an overwrite never counts.
func DrawnValues() int64 { return drawn.Load() }

// vals returns the values, drawing them first if they are pending.
func (t *Tensor) vals() []float64 {
	if t.pend.Load() != nil {
		t.draw()
	}
	return t.buf
}

// draw makes t's pending draw, once, however many goroutines first read t
// together.
func (t *Tensor) draw() {
	p := t.pend.Load()
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.pend.Load() != p {
		return // drawn (or dropped) while this caller waited
	}
	rng := p.rng
	for o := 0; o < p.stride; o++ {
		for i := o; i < len(t.buf); i += p.stride {
			t.buf[i] = p.lo + p.span*rng.Float64() // Uniform's lo + (hi-lo)*u
		}
	}
	drawn.Add(int64(len(t.buf)))
	t.pend.Store(nil)
}

// pendingDraw makes t's values a pending draw from rng and moves rng past
// it: each value is one Float64, two steps of the generator.
func pendingDraw(rng *xrand.RNG, lo, span float64, stride int, t *Tensor) *Tensor {
	if len(t.buf) > 0 {
		t.pend.Store(&pending{rng: *rng, lo: lo, span: span, stride: stride})
		rng.Advance(2 * uint64(len(t.buf)))
	}
	return t
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
	return &Tensor{shape: append([]int(nil), shape...), buf: make([]float64, n)}
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
	return &Tensor{shape: append([]int(nil), shape...), buf: data}
}

// Scalar returns a 0-dimensional tensor holding v.
func Scalar(v float64) *Tensor {
	return &Tensor{shape: nil, buf: []float64{v}}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.buf {
		t.buf[i] = v
	}
	return t
}

// Randn fills a new tensor with N(0, std²) variates drawn from rng. It
// draws at once (see the package comment).
func Randn(rng *xrand.RNG, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.buf {
		t.buf[i] = rng.NormFloat64() * std
	}
	return t
}

// Uniform returns a new tensor of uniform variates in [lo, hi), drawn in
// row-major order. The draw is pending (see the package comment); rng moves
// past it at once.
func Uniform(rng *xrand.RNG, lo, hi float64, shape ...int) *Tensor {
	return pendingDraw(rng, lo, hi-lo, 1, New(shape...))
}

// XavierUniform returns a (fanIn, fanOut)-shaped weight matrix, the layout
// y = xW multiplies by, initialized with the Glorot/Xavier uniform scheme.
// It draws its U(-limit, limit) values in row-major order over (fanOut,
// fanIn), one output unit's fan-in after another, and writes each straight
// to its place in the (fanIn, fanOut) matrix: the result is the transpose
// of Uniform(rng, -limit, limit, fanOut, fanIn), bit for bit, and leaves
// rng where that call would. The draw is pending, like Uniform's.
func XavierUniform(rng *xrand.RNG, fanIn, fanOut int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return pendingDraw(rng, -limit, 2*limit, fanOut, New(fanIn, fanOut))
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.buf) }

// Data exposes the backing slice (row-major), drawing pending values first.
// Mutations are visible to the tensor; callers that need isolation should
// Clone first.
func (t *Tensor) Data() []float64 { return t.vals() }

// Overwrite returns the backing slice to a caller that writes every element
// before anything reads one — a restore's copy, a read laid over the
// tensor's memory: a pending draw is dropped, never drawn.
func (t *Tensor) Overwrite() []float64 {
	if t.pend.Load() != nil {
		t.pend.Store(nil)
	}
	return t.buf
}

// Storage returns the backing slice without drawing or dropping anything:
// while the tensor is pending, what it holds is not the tensor's values.
// It is for a caller that lays a later write over the tensor's memory and
// calls Overwrite when it issues that write, never for reading values.
func (t *Tensor) Storage() []float64 { return t.buf }

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float64 {
	return t.vals()[t.offset(idx)]
}

// Set assigns the element at the given indices.
func (t *Tensor) Set(v float64, idx ...int) {
	t.vals()[t.offset(idx)] = v
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
	if len(t.buf) != 1 {
		panic(fmt.Sprintf("tensor: Item on tensor with %d elements", len(t.buf)))
	}
	return t.vals()[0]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), buf: make([]float64, len(t.buf))}
	copy(c.buf, t.vals())
	return c
}

// CopyFrom copies src's data into t, dropping a pending draw of t's. Shapes
// must match exactly.
func (t *Tensor) CopyFrom(src *Tensor) {
	if !SameShape(t, src) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, src.shape))
	}
	from := src.vals() // first: src may be t
	copy(t.Overwrite(), from)
}

// Reshape returns a view-free copy header with a new shape over the same
// data. Element counts must match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.buf) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.shape, len(t.buf), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), buf: t.vals()} // drawn: the two headers share values
}

// Zero sets every element to 0, dropping a pending draw.
func (t *Tensor) Zero() {
	clear(t.Overwrite())
}

// Fill sets every element to v, dropping a pending draw.
func (t *Tensor) Fill(v float64) {
	d := t.Overwrite()
	for i := range d {
		d[i] = v
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
	ad, bd := a.vals(), b.vals()
	for i := range ad {
		if ad[i] != bd[i] {
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
	ad, bd := a.vals(), b.vals()
	for i := range ad {
		if math.Abs(ad[i]-bd[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a compact description, eliding large tensors.
func (t *Tensor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tensor%v", t.shape)
	if d := t.vals(); len(d) <= 8 {
		fmt.Fprintf(&sb, "%v", d)
	} else {
		fmt.Fprintf(&sb, "[%g %g ... %g]", d[0], d[1], d[len(d)-1])
	}
	return sb.String()
}
