package nn

import (
	"flor.dev/flor/internal/autograd"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// Classifier is the interface shared by all image/sequence classification
// models: map a (batch, features) input to (batch, classes) logits.
type Classifier interface {
	Module
	Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var
}

// ConvNet is the "Squeezenet" analogue (workloads Cifr and ImgN): a 1-D
// convolutional feature extractor followed by a linear classifier.
type ConvNet struct {
	conv1  *Conv1DLayer
	conv2  *Conv1DLayer
	head   *Linear
	params []Param

	inLen   int
	k1, l1  int
	k2, l2  int
	headIn  int
	classes int
}

// NewConvNet constructs a ConvNet for inputs of length inLen with the given
// kernel bank sizes and class count.
func NewConvNet(rng *xrand.RNG, inLen, kernels1, klen1, kernels2, klen2, classes int) *ConvNet {
	out1 := inLen - klen1 + 1
	out2 := out1 - klen2 + 1
	headIn := kernels1 * kernels2 * out2
	c := &ConvNet{
		conv1:   NewConv1DLayer("conv1", rng, kernels1, klen1),
		conv2:   NewConv1DLayer("conv2", rng, kernels2, klen2),
		head:    NewLinear("head", rng, headIn, classes),
		inLen:   inLen,
		k1:      kernels1,
		l1:      klen1,
		k2:      kernels2,
		l2:      klen2,
		headIn:  headIn,
		classes: classes,
	}
	c.params = collect(c.conv1, c.conv2, c.head)
	return c
}

// Forward maps x (batch, inLen) to logits (batch, classes).
func (c *ConvNet) Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	batch := x.Value.Dim(0)
	h := t.Relu(c.conv1.Forward(t, x))       // (batch*k1, out1)
	h = t.Relu(c.conv2.Forward(t, h))        // (batch*k1*k2, out2)
	flat := t.ReshapeVar(h, batch, c.headIn) // (batch, k1*k2*out2)
	return c.head.Forward(t, flat)
}

// Params implements Module.
func (c *ConvNet) Params() []Param { return clip(c.params) }

// ResidualMLP is the "ResNet-152" analogue (workload RsNt): a deep stack of
// width-preserving residual blocks over a linear stem.
type ResidualMLP struct {
	stem   *Linear
	blocks []*ResidualBlock
	head   *Linear
	params []Param
}

// NewResidualMLP constructs depth residual blocks of the given width.
func NewResidualMLP(rng *xrand.RNG, in, width, hidden, depth, classes int) *ResidualMLP {
	m := &ResidualMLP{
		stem: NewLinear("stem", rng, in, width),
		head: NewLinear("head", rng, width, classes),
	}
	for i := 0; i < depth; i++ {
		m.blocks = append(m.blocks, NewResidualBlock(blockName("block", i), rng, width, hidden))
	}
	m.params = collect(m.stem)
	for _, b := range m.blocks {
		m.params = append(m.params, b.Params()...)
	}
	m.params = append(m.params, m.head.Params()...)
	return m
}

func blockName(prefix string, i int) string {
	// Two-digit zero padding keeps lexical order equal to construction order.
	const digits = "0123456789"
	return prefix + "." + string([]byte{digits[i/10%10], digits[i%10]})
}

// Forward maps x (batch, in) to logits.
func (m *ResidualMLP) Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	h := t.Relu(m.stem.Forward(t, x))
	for _, b := range m.blocks {
		h = b.Forward(t, h)
	}
	return m.head.Forward(t, h)
}

// Params implements Module.
func (m *ResidualMLP) Params() []Param { return clip(m.params) }

// Transformer is the "RoBERTa" analogue. It serves three workloads:
// Wiki (language modeling over token streams), and RTE/CoLA (fine-tuning:
// the backbone is frozen and only the classification head trains).
type Transformer struct {
	embed  *Embedding
	pos    *Embedding
	blocks []*TransformerBlock
	head   *Linear
	params []Param

	seqLen int
	dim    int
}

// NewTransformer constructs a transformer over vocab-sized tokens with
// maximum sequence length seqLen.
func NewTransformer(rng *xrand.RNG, vocab, seqLen, dim, hidden, depth, classes int) *Transformer {
	m := &Transformer{
		embed:  NewEmbedding("backbone.embed", rng, vocab, dim),
		pos:    NewEmbedding("backbone.pos", rng, seqLen, dim),
		head:   NewLinear("head", rng, dim, classes),
		seqLen: seqLen,
		dim:    dim,
	}
	for i := 0; i < depth; i++ {
		m.blocks = append(m.blocks, NewTransformerBlock(blockName("backbone.block", i), rng, dim, hidden))
	}
	m.params = collect(m.embed, m.pos)
	for _, b := range m.blocks {
		m.params = append(m.params, b.Params()...)
	}
	m.params = append(m.params, m.head.Params()...)
	return m
}

// FreezeBackbone freezes the embedding and all transformer blocks, leaving
// only the head trainable — the fine-tuning configuration of RTE and CoLA.
func (m *Transformer) FreezeBackbone() int {
	return Freeze(m, "backbone.")
}

// Encode runs the backbone over one token sequence, returning (seqLen, dim)
// hidden states.
func (m *Transformer) Encode(t *autograd.Tape, tokens []int) *autograd.Var {
	posIDs := make([]int, len(tokens))
	for i := range posIDs {
		posIDs[i] = i % m.seqLen
	}
	h := t.Add(m.embed.Forward(t, tokens), m.pos.Forward(t, posIDs))
	for _, b := range m.blocks {
		h = b.Forward(t, h)
	}
	return h
}

// ClassifyLogits mean-pools the encoded sequence and applies the head,
// producing (1, classes) logits for one sequence.
func (m *Transformer) ClassifyLogits(t *autograd.Tape, tokens []int) *autograd.Var {
	h := m.Encode(t, tokens)
	pooled := t.MeanRows(h)
	return m.head.Forward(t, pooled)
}

// LMLogits returns per-position next-token logits (seqLen, classes) for one
// sequence; used by the Wiki language-modeling workload.
func (m *Transformer) LMLogits(t *autograd.Tape, tokens []int) *autograd.Var {
	return m.head.Forward(t, m.Encode(t, tokens))
}

// Params implements Module.
func (m *Transformer) Params() []Param { return clip(m.params) }

// ConvSpeech is the "Jasper" analogue (workload Jasp): a deep stack of 1-D
// convolutions over audio-like frames with a per-utterance classifier.
type ConvSpeech struct {
	convs  []*Conv1DLayer
	pool   *Linear
	head   *Linear
	params []Param

	inLen   int
	poolIn  int
	classes int
}

// NewConvSpeech constructs depth conv layers (each widthKernels kernels of
// length klen) over frames of length inLen.
func NewConvSpeech(rng *xrand.RNG, inLen, widthKernels, klen, depth, hidden, classes int) *ConvSpeech {
	m := &ConvSpeech{inLen: inLen, classes: classes}
	length := inLen
	for i := 0; i < depth; i++ {
		m.convs = append(m.convs, NewConv1DLayer(blockName("conv", i), rng, widthKernels, klen))
		length = length - klen + 1
	}
	// Row count multiplies by widthKernels at each layer; pool collapses the
	// final feature map to a fixed hidden width via mean-pool then linear.
	m.poolIn = length
	m.pool = NewLinear("pool", rng, length, hidden)
	m.head = NewLinear("head", rng, hidden, classes)
	for _, c := range m.convs {
		m.params = append(m.params, c.Params()...)
	}
	m.params = append(m.params, collect(m.pool, m.head)...)
	return m
}

// Forward maps x (batch, inLen) to logits (batch, classes). After the conv
// stack, rows belonging to the same utterance are mean-pooled.
func (m *ConvSpeech) Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	batch := x.Value.Dim(0)
	h := x
	for _, c := range m.convs {
		h = t.Relu(c.Forward(t, h))
	}
	// h is (batch*prod(kernels), poolIn); mean-pool groups back to batch rows.
	group := h.Value.Dim(0) / batch
	pooled := t.MeanGroups(h, batch, group)
	return m.head.Forward(t, t.Relu(m.pool.Forward(t, pooled)))
}

// Params implements Module.
func (m *ConvSpeech) Params() []Param { return clip(m.params) }

// RNNAttention is the "RNN with attention" analogue (workload RnnT): an
// encoder RNN over source tokens, a decoder RNN with dot-product attention
// over encoder states, and a vocabulary head.
type RNNAttention struct {
	srcEmbed *Embedding
	tgtEmbed *Embedding
	encoder  *RNNCell
	decoder  *RNNCell
	head     *Linear
	hidden   int
	params   []Param
}

// NewRNNAttention constructs the seq2seq model.
func NewRNNAttention(rng *xrand.RNG, vocab, dim, hidden int) *RNNAttention {
	m := &RNNAttention{
		srcEmbed: NewEmbedding("src.embed", rng, vocab, dim),
		tgtEmbed: NewEmbedding("tgt.embed", rng, vocab, dim),
		encoder:  NewRNNCell("encoder", rng, dim, hidden),
		decoder:  NewRNNCell("decoder", rng, dim+hidden, hidden),
		head:     NewLinear("head", rng, 2*hidden, vocab),
		hidden:   hidden,
	}
	m.params = collect(m.srcEmbed, m.tgtEmbed, m.encoder, m.decoder, m.head)
	return m
}

// Logits teacher-forces the decoder over tgt given src, returning
// (len(tgt), vocab) next-token logits for one sentence pair.
func (m *RNNAttention) Logits(t *autograd.Tape, src, tgt []int) *autograd.Var {
	// Encode source.
	srcEmb := m.srcEmbed.Forward(t, src) // (S, dim)
	h := autograd.NewConst(tensor.New(1, m.hidden))
	encStates := make([]*autograd.Var, len(src))
	for i := range src {
		h = m.encoder.Step(t, t.RowVar(srcEmb, i), h)
		encStates[i] = h
	}
	enc := t.StackRows(encStates) // (S, hidden)
	// Decode with attention.
	tgtEmb := m.tgtEmbed.Forward(t, tgt) // (T, dim)
	d := h                               // decoder starts from final encoder state
	outs := make([]*autograd.Var, len(tgt))
	for i := range tgt {
		// Attention: scores over encoder states from current decoder state.
		scores := t.MatMul(d, t.TransposeVar(enc)) // (1, S)
		attn := t.SoftmaxRows(scores)
		ctx := t.MatMul(attn, enc) // (1, hidden)
		inp := t.ConcatRows(t.RowVar(tgtEmb, i), ctx)
		d = m.decoder.Step(t, inp, d)
		outs[i] = t.ConcatRows(d, ctx)
	}
	return m.head.Forward(t, t.StackRows(outs))
}

// Params implements Module.
func (m *RNNAttention) Params() []Param { return clip(m.params) }
