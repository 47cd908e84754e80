package tensor

import (
	"fmt"
	"math"
)

// Add returns a + b element-wise. Shapes must match.
func Add(a, b *Tensor) *Tensor {
	checkSameShape("Add", a, b)
	ad, bd := a.vals(), b.vals()
	out := New(a.shape...)
	for i := range ad {
		out.buf[i] = ad[i] + bd[i]
	}
	return out
}

// Sub returns a - b element-wise.
func Sub(a, b *Tensor) *Tensor {
	checkSameShape("Sub", a, b)
	ad, bd := a.vals(), b.vals()
	out := New(a.shape...)
	for i := range ad {
		out.buf[i] = ad[i] - bd[i]
	}
	return out
}

// Mul returns a * b element-wise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	checkSameShape("Mul", a, b)
	ad, bd := a.vals(), b.vals()
	out := New(a.shape...)
	for i := range ad {
		out.buf[i] = ad[i] * bd[i]
	}
	return out
}

// Scale returns a * s.
func Scale(a *Tensor, s float64) *Tensor {
	ad := a.vals()
	out := New(a.shape...)
	for i := range ad {
		out.buf[i] = ad[i] * s
	}
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Tensor) {
	checkSameShape("AddInPlace", a, b)
	ad, bd := a.vals(), b.vals()
	for i := range ad {
		ad[i] += bd[i]
	}
}

// AxpyInPlace computes a += alpha * b.
func AxpyInPlace(a *Tensor, alpha float64, b *Tensor) {
	checkSameShape("AxpyInPlace", a, b)
	ad, bd := a.vals(), b.vals()
	for i := range ad {
		ad[i] += alpha * bd[i]
	}
}

// ScaleInPlace multiplies every element of a by s.
func ScaleInPlace(a *Tensor, s float64) {
	ad := a.vals()
	for i := range ad {
		ad[i] *= s
	}
}

// MatMul multiplies a (m×k) by b (k×n) producing (m×n).
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	ad, bd := a.vals(), b.vals()
	out := New(m, n)
	// ikj loop order: streams through b and out rows for cache friendliness
	// while keeping accumulation order fixed (determinism).
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := out.buf[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := bd[kk*n : (kk+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MatMulTransB multiplies a (m×k) by bᵀ where b is (n×k), producing (m×n).
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransB requires 2-D operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v x %vᵀ", a.shape, b.shape))
	}
	ad, bd := a.vals(), b.vals()
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			sum := 0.0
			for kk := 0; kk < k; kk++ {
				sum += arow[kk] * brow[kk]
			}
			out.buf[i*n+j] = sum
		}
	}
	return out
}

// MatMulTransA multiplies aᵀ by b where a is (k×m) and b is (k×n), producing (m×n).
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransA requires 2-D operands, got %v and %v", a.shape, b.shape))
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %vᵀ x %v", a.shape, b.shape))
	}
	ad, bd := a.vals(), b.vals()
	out := New(m, n)
	for kk := 0; kk < k; kk++ {
		arow := ad[kk*m : (kk+1)*m]
		brow := bd[kk*n : (kk+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.buf[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Transpose requires a 2-D tensor, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	ad := a.vals()
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.buf[j*m+i] = ad[i*n+j]
		}
	}
	return out
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.vals() {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.buf) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.buf))
}

// Norm returns the L2 norm of the tensor viewed as a flat vector: the
// square root of SumSquares.
func (t *Tensor) Norm() float64 { return math.Sqrt(t.SumSquares()) }

// SumSquares returns the sum of the squares of all elements, in the
// positional sixteen-lane order the package comment states. It allocates
// nothing, and its bits do not depend on whether the host runs the AVX2
// kernel.
func (t *Tensor) SumSquares() float64 { return sumSquares(t.vals()) }

// MaxAbs returns the largest absolute element value (0 for empty tensors).
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.vals() {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Apply returns a new tensor with f applied to every element.
func Apply(a *Tensor, f func(float64) float64) *Tensor {
	ad := a.vals()
	out := New(a.shape...)
	for i := range ad {
		out.buf[i] = f(ad[i])
	}
	return out
}

// Relu returns max(0, x) element-wise.
func Relu(a *Tensor) *Tensor {
	return Apply(a, func(v float64) float64 {
		if v > 0 {
			return v
		}
		return 0
	})
}

// Tanh returns tanh(x) element-wise.
func Tanh(a *Tensor) *Tensor { return Apply(a, math.Tanh) }

// Sigmoid returns 1/(1+e^-x) element-wise.
func Sigmoid(a *Tensor) *Tensor {
	return Apply(a, func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
}

// Gelu returns the tanh-approximated GELU activation element-wise.
func Gelu(a *Tensor) *Tensor {
	const c = 0.7978845608028654 // sqrt(2/pi)
	return Apply(a, func(v float64) float64 {
		return 0.5 * v * (1 + math.Tanh(c*(v+0.044715*v*v*v)))
	})
}

// SoftmaxRows applies a numerically stable softmax to each row of a 2-D
// tensor.
func SoftmaxRows(a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: SoftmaxRows requires a 2-D tensor, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	ad := a.vals()
	out := New(m, n)
	for i := 0; i < m; i++ {
		row := ad[i*n : (i+1)*n]
		orow := out.buf[i*n : (i+1)*n]
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxv)
			orow[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out
}

// LogSumExpRows returns, for each row of a 2-D tensor, log Σ exp(row).
func LogSumExpRows(a *Tensor) []float64 {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: LogSumExpRows requires a 2-D tensor, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	ad := a.vals()
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		row := ad[i*n : (i+1)*n]
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - maxv)
		}
		out[i] = maxv + math.Log(sum)
	}
	return out
}

// ArgmaxRows returns the index of the maximum element in each row of a 2-D
// tensor (first occurrence wins).
func ArgmaxRows(a *Tensor) []int {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: ArgmaxRows requires a 2-D tensor, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	ad := a.vals()
	out := make([]int, m)
	for i := 0; i < m; i++ {
		row := ad[i*n : (i+1)*n]
		best, bestJ := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bestJ = v, j
			}
		}
		out[i] = bestJ
	}
	return out
}

// Conv1D performs a 1-D valid convolution of each input row with each
// kernel. Input is (batch, inLen), kernels is (numKernels, kernelLen);
// output is (batch*numKernels, inLen-kernelLen+1) flattened row-major by
// (batch, kernel). It is the compute kernel behind the audio workloads.
func Conv1D(input, kernels *Tensor) *Tensor {
	if input.Dims() != 2 || kernels.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Conv1D requires 2-D operands, got %v and %v", input.shape, kernels.shape))
	}
	batch, inLen := input.shape[0], input.shape[1]
	nk, klen := kernels.shape[0], kernels.shape[1]
	outLen := inLen - klen + 1
	if outLen <= 0 {
		panic(fmt.Sprintf("tensor: Conv1D kernel length %d exceeds input length %d", klen, inLen))
	}
	id, kd := input.vals(), kernels.vals()
	out := New(batch*nk, outLen)
	for b := 0; b < batch; b++ {
		in := id[b*inLen : (b+1)*inLen]
		for kidx := 0; kidx < nk; kidx++ {
			ker := kd[kidx*klen : (kidx+1)*klen]
			orow := out.buf[(b*nk+kidx)*outLen : (b*nk+kidx+1)*outLen]
			for o := 0; o < outLen; o++ {
				sum := 0.0
				for j := 0; j < klen; j++ {
					sum += in[o+j] * ker[j]
				}
				orow[o] = sum
			}
		}
	}
	return out
}

// Rows returns the sub-tensor consisting of rows [from, to) of a 2-D tensor
// as a copy.
func Rows(a *Tensor, from, to int) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Rows requires a 2-D tensor, got %v", a.shape))
	}
	if from < 0 || to > a.shape[0] || from > to {
		panic(fmt.Sprintf("tensor: Rows[%d:%d] out of range for %v", from, to, a.shape))
	}
	n := a.shape[1]
	out := New(to-from, n)
	copy(out.buf, a.vals()[from*n:to*n])
	return out
}

func checkSameShape(op string, a, b *Tensor) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}
