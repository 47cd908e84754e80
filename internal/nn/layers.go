package nn

import (
	"fmt"
	"math"

	"flor.dev/flor/internal/autograd"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// Linear is a fully connected layer: y = xW + b with W shaped (in, out).
type Linear struct {
	wName, bName string // parameter names, built once: Params runs on every restore and step
	W            *autograd.Var
	B            *autograd.Var
}

// NewLinear constructs a Xavier-initialized linear layer.
func NewLinear(name string, rng *xrand.RNG, in, out int) *Linear {
	w := tensor.Transpose(tensor.XavierUniform(rng, in, out)) // (in, out)
	return &Linear{
		wName: name + ".w",
		bName: name + ".b",
		W:     autograd.NewParam(w),
		B:     autograd.NewParam(tensor.New(out)),
	}
}

// Forward applies the layer to x (batch, in).
func (l *Linear) Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	return t.AddBias(t.MatMul(x, l.W), l.B)
}

// Params implements Module.
func (l *Linear) Params() []Param {
	return []Param{
		{Name: l.wName, Var: l.W},
		{Name: l.bName, Var: l.B},
	}
}

// Embedding maps integer ids to dense rows of a (vocab, dim) table.
type Embedding struct {
	tableName string
	Table     *autograd.Var
}

// NewEmbedding constructs a N(0, 0.02²)-initialized embedding table.
func NewEmbedding(name string, rng *xrand.RNG, vocab, dim int) *Embedding {
	return &Embedding{
		tableName: name + ".table",
		Table:     autograd.NewParam(tensor.Randn(rng, 0.02, vocab, dim)),
	}
}

// Forward gathers the rows for ids.
func (e *Embedding) Forward(t *autograd.Tape, ids []int) *autograd.Var {
	return t.Lookup(e.Table, ids)
}

// Params implements Module.
func (e *Embedding) Params() []Param {
	return []Param{{Name: e.tableName, Var: e.Table}}
}

// LayerNorm normalizes rows and applies learned gain/bias.
type LayerNorm struct {
	gainName, biasName string
	Gain               *autograd.Var
	Bias               *autograd.Var
	Eps                float64
}

// NewLayerNorm constructs a layer norm over width-dim rows.
func NewLayerNorm(name string, dim int) *LayerNorm {
	return &LayerNorm{
		gainName: name + ".gain",
		biasName: name + ".bias",
		Gain:     autograd.NewParam(tensor.Full(1, dim)),
		Bias:     autograd.NewParam(tensor.New(dim)),
		Eps:      1e-5,
	}
}

// Forward normalizes x (batch, dim).
func (l *LayerNorm) Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	return t.LayerNorm(x, l.Gain, l.Bias, l.Eps)
}

// Params implements Module.
func (l *LayerNorm) Params() []Param {
	return []Param{
		{Name: l.gainName, Var: l.Gain},
		{Name: l.biasName, Var: l.Bias},
	}
}

// ResidualBlock is Linear→ReLU→Linear with a skip connection; the building
// block of the deep "ResNet-152" analogue.
type ResidualBlock struct {
	name string
	fc1  *Linear
	fc2  *Linear
	ln   *LayerNorm
}

// NewResidualBlock constructs a width-preserving residual block.
func NewResidualBlock(name string, rng *xrand.RNG, dim, hidden int) *ResidualBlock {
	return &ResidualBlock{
		name: name,
		fc1:  NewLinear(name+".fc1", rng, dim, hidden),
		fc2:  NewLinear(name+".fc2", rng, hidden, dim),
		ln:   NewLayerNorm(name+".ln", dim),
	}
}

// Forward applies the block to x (batch, dim).
func (r *ResidualBlock) Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	h := r.fc2.Forward(t, t.Relu(r.fc1.Forward(t, x)))
	return r.ln.Forward(t, t.Add(x, h))
}

// Params implements Module.
func (r *ResidualBlock) Params() []Param {
	var out []Param
	out = append(out, r.fc1.Params()...)
	out = append(out, r.fc2.Params()...)
	out = append(out, r.ln.Params()...)
	return out
}

// SelfAttention is a single-head scaled dot-product self-attention layer
// operating on one sequence at a time: x is (seqLen, dim).
type SelfAttention struct {
	name string
	wq   *Linear
	wk   *Linear
	wv   *Linear
	wo   *Linear
	dim  int
}

// NewSelfAttention constructs an attention layer of the given width.
func NewSelfAttention(name string, rng *xrand.RNG, dim int) *SelfAttention {
	return &SelfAttention{
		name: name,
		wq:   NewLinear(name+".wq", rng, dim, dim),
		wk:   NewLinear(name+".wk", rng, dim, dim),
		wv:   NewLinear(name+".wv", rng, dim, dim),
		wo:   NewLinear(name+".wo", rng, dim, dim),
		dim:  dim,
	}
}

// Forward applies attention to a (seqLen, dim) sequence.
func (a *SelfAttention) Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	q := a.wq.Forward(t, x)
	k := a.wk.Forward(t, x)
	v := a.wv.Forward(t, x)
	// scores = QKᵀ / sqrt(dim): (seq, seq)
	scores := t.Scale(t.MatMul(q, t.TransposeVar(k)), 1/math.Sqrt(float64(a.dim)))
	attn := t.SoftmaxRows(scores)
	return a.wo.Forward(t, t.MatMul(attn, v))
}

// Params implements Module.
func (a *SelfAttention) Params() []Param {
	var out []Param
	out = append(out, a.wq.Params()...)
	out = append(out, a.wk.Params()...)
	out = append(out, a.wv.Params()...)
	out = append(out, a.wo.Params()...)
	return out
}

// TransformerBlock is attention + feed-forward with layer norms and skips.
type TransformerBlock struct {
	name string
	attn *SelfAttention
	ln1  *LayerNorm
	ff1  *Linear
	ff2  *Linear
	ln2  *LayerNorm
}

// NewTransformerBlock constructs a block of the given width and FF hidden
// size.
func NewTransformerBlock(name string, rng *xrand.RNG, dim, hidden int) *TransformerBlock {
	return &TransformerBlock{
		name: name,
		attn: NewSelfAttention(name+".attn", rng, dim),
		ln1:  NewLayerNorm(name+".ln1", dim),
		ff1:  NewLinear(name+".ff1", rng, dim, hidden),
		ff2:  NewLinear(name+".ff2", rng, hidden, dim),
		ln2:  NewLayerNorm(name+".ln2", dim),
	}
}

// Forward applies the block to a (seqLen, dim) sequence.
func (b *TransformerBlock) Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	h := b.ln1.Forward(t, t.Add(x, b.attn.Forward(t, x)))
	ff := b.ff2.Forward(t, t.Gelu(b.ff1.Forward(t, h)))
	return b.ln2.Forward(t, t.Add(h, ff))
}

// Params implements Module.
func (b *TransformerBlock) Params() []Param {
	var out []Param
	out = append(out, b.attn.Params()...)
	out = append(out, b.ln1.Params()...)
	out = append(out, b.ff1.Params()...)
	out = append(out, b.ff2.Params()...)
	out = append(out, b.ln2.Params()...)
	return out
}

// RNNCell is a vanilla tanh recurrent cell: h' = tanh(xWx + hWh + b).
type RNNCell struct {
	wxName, whName, bName string
	wx                    *autograd.Var
	wh                    *autograd.Var
	b                     *autograd.Var
}

// NewRNNCell constructs a cell mapping in-dim inputs to hidden-dim state.
func NewRNNCell(name string, rng *xrand.RNG, in, hidden int) *RNNCell {
	return &RNNCell{
		wxName: name + ".wx",
		whName: name + ".wh",
		bName:  name + ".b",
		wx:     autograd.NewParam(tensor.Transpose(tensor.XavierUniform(rng, in, hidden))),
		wh:     autograd.NewParam(tensor.Transpose(tensor.XavierUniform(rng, hidden, hidden))),
		b:      autograd.NewParam(tensor.New(hidden)),
	}
}

// Step advances the cell: x is (batch, in), h is (batch, hidden).
func (c *RNNCell) Step(t *autograd.Tape, x, h *autograd.Var) *autograd.Var {
	return t.Tanh(t.AddBias(t.Add(t.MatMul(x, c.wx), t.MatMul(h, c.wh)), c.b))
}

// Params implements Module.
func (c *RNNCell) Params() []Param {
	return []Param{
		{Name: c.wxName, Var: c.wx},
		{Name: c.whName, Var: c.wh},
		{Name: c.bName, Var: c.b},
	}
}

// Conv1DLayer holds a bank of 1-D kernels applied to row signals.
type Conv1DLayer struct {
	kernelsName string
	Kernels     *autograd.Var
}

// NewConv1DLayer constructs numKernels kernels of length klen.
func NewConv1DLayer(name string, rng *xrand.RNG, numKernels, klen int) *Conv1DLayer {
	std := 1 / math.Sqrt(float64(klen))
	return &Conv1DLayer{
		kernelsName: name + ".kernels",
		Kernels:     autograd.NewParam(tensor.Randn(rng, std, numKernels, klen)),
	}
}

// Forward convolves input (batch, inLen) with the kernel bank.
func (c *Conv1DLayer) Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	return t.Conv1D(x, c.Kernels)
}

// Params implements Module.
func (c *Conv1DLayer) Params() []Param {
	return []Param{{Name: c.kernelsName, Var: c.Kernels}}
}

// Accuracy returns the fraction of rows of logits whose argmax matches the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	if logits.Dim(0) != len(labels) {
		panic(fmt.Sprintf("nn: Accuracy %d rows vs %d labels", logits.Dim(0), len(labels)))
	}
	pred := tensor.ArgmaxRows(logits)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
