// Package value defines the typed values that live in a training program's
// environment, and the snapshot/restore/encode protocol Flor checkpoints are
// built from.
//
// The protocol has two halves, mirroring the paper's record/replay split:
//
//   - Value.Snapshot() performs a fast deep copy of the value's mutable state
//     on the training thread (the analogue of fork()'s copy in §5.1); the
//     resulting Payload is immutable and can be encoded in the background.
//     EncodeLive fuses the two: it encodes the live state itself, in the bytes
//     the snapshot would encode to, so the encode is the only copy made.
//   - Value.Restore(payload) applies a payload onto the live object. Replay
//     re-executes program setup to reconstruct objects (models, optimizers),
//     then restores checkpointed state onto them — physiological recovery:
//     logical reconstruction of structure, physical recovery of state.
package value

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// Kind identifies a value/payload type on the wire.
type Kind uint8

// The supported kinds.
const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTensor
	KindState // named tensors + named scalars: models, optimizers, schedulers
	KindRNG
	KindOpaque // non-checkpointable runtime handles (dataset objects etc.)
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindTensor:
		return "tensor"
	case KindState:
		return "state"
	case KindRNG:
		return "rng"
	case KindOpaque:
		return "opaque"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(k))
	}
}

// Payload is an immutable snapshot of a value's mutable state.
type Payload interface {
	Kind() Kind
	Encode(w *codec.Writer)
	SizeBytes() int
}

// Value is a live object in a program environment.
type Value interface {
	Kind() Kind
	// Snapshot deep-copies the value's mutable state. It is the only part of
	// materialization that runs on the training thread.
	Snapshot() Payload
	// Restore applies a payload captured from an identically structured
	// value.
	Restore(Payload) error
	// SizeBytes estimates the serialized size, used by adaptive
	// checkpointing to predict materialization cost.
	SizeBytes() int
	// Equal reports whether another value holds identical state; used by
	// memoization-correctness checks and tests.
	Equal(Value) bool
}

// ---------- payloads ----------

// IntPayload carries an int.
type IntPayload int64

// Kind implements Payload.
func (IntPayload) Kind() Kind { return KindInt }

// Encode implements Payload.
func (p IntPayload) Encode(w *codec.Writer) { w.Int64(int64(p)) }

// SizeBytes implements Payload.
func (IntPayload) SizeBytes() int { return 9 }

// FloatPayload carries a float64.
type FloatPayload float64

// Kind implements Payload.
func (FloatPayload) Kind() Kind { return KindFloat }

// Encode implements Payload.
func (p FloatPayload) Encode(w *codec.Writer) { w.Float64(float64(p)) }

// SizeBytes implements Payload.
func (FloatPayload) SizeBytes() int { return 8 }

// StringPayload carries a string.
type StringPayload string

// Kind implements Payload.
func (StringPayload) Kind() Kind { return KindString }

// Encode implements Payload.
func (p StringPayload) Encode(w *codec.Writer) { w.String(string(p)) }

// SizeBytes implements Payload.
func (p StringPayload) SizeBytes() int { return len(p) + 4 }

// BoolPayload carries a bool.
type BoolPayload bool

// Kind implements Payload.
func (BoolPayload) Kind() Kind { return KindBool }

// Encode implements Payload.
func (p BoolPayload) Encode(w *codec.Writer) { w.Bool(bool(p)) }

// SizeBytes implements Payload.
func (BoolPayload) SizeBytes() int { return 1 }

// TensorPayload carries a dense tensor in codec.Dense's two forms: Snapshot
// builds the materialized one (T set), DecodePayload the view over the
// decoded section buffer, which Restore copies straight into the live
// tensor's backing array. A decoded payload kept beyond the restore it was
// decoded for is materialized first (Materialize), as a
// backmat.PayloadCache does at admission, so nothing outlives its buffer.
type TensorPayload codec.Dense

// Kind implements Payload.
func (TensorPayload) Kind() Kind { return KindTensor }

// Encode implements Payload.
func (p TensorPayload) Encode(w *codec.Writer) { w.Dense(codec.Dense(p)) }

// SizeBytes implements Payload.
func (p TensorPayload) SizeBytes() int { return 8*codec.Dense(p).Len() + 8 }

// Tensor returns the payload's tensor, a fresh copy when it is a view.
func (p TensorPayload) Tensor() *tensor.Tensor { return codec.Dense(p).Tensor() }

// StatePayload carries named tensors plus named scalars, sorted by name on
// the wire for deterministic encoding. It serves models, optimizers and
// schedulers alike. Like TensorPayload it has one decoded form: DecodePayload
// leaves every tensor entry a codec.Dense view over the section buffer, and
// Model, Optimizer and Scheduler restore by overwriting their own tensors
// from it — a decoded state is never adopted as live state, so one payload
// can serve any number of restores.
type StatePayload struct{ S *opt.State }

// Kind implements Payload.
func (StatePayload) Kind() Kind { return KindState }

// Encode implements Payload.
func (p StatePayload) Encode(w *codec.Writer) {
	scalarKeys := sortedKeys(p.S.Scalars)
	w.Uvarint(uint64(len(scalarKeys)))
	for _, k := range scalarKeys {
		w.String(k)
		w.Float64(p.S.Scalars[k])
	}
	tensorKeys := sortedKeys(p.S.Tensors)
	w.Uvarint(uint64(len(tensorKeys)))
	for _, k := range tensorKeys {
		w.String(k)
		w.Dense(p.S.Tensors[k])
	}
}

// SizeBytes implements Payload.
func (p StatePayload) SizeBytes() int { return p.S.SizeBytes() + 8 }

// RNGPayload carries a PCG generator state.
type RNGPayload [16]byte

// Kind implements Payload.
func (RNGPayload) Kind() Kind { return KindRNG }

// Encode implements Payload.
func (p RNGPayload) Encode(w *codec.Writer) { w.RawBytes(p[:]) }

// SizeBytes implements Payload.
func (RNGPayload) SizeBytes() int { return 17 }

// DecodePayload reads one payload of the given kind from r.
func DecodePayload(r *codec.Reader, k Kind) (Payload, error) {
	switch k {
	case KindInt:
		v, err := r.Int64()
		if err != nil {
			return nil, err
		}
		return IntPayload(v), nil
	case KindFloat:
		v, err := r.Float64()
		if err != nil {
			return nil, err
		}
		return FloatPayload(v), nil
	case KindString:
		v, err := r.String()
		if err != nil {
			return nil, err
		}
		return StringPayload(v), nil
	case KindBool:
		v, err := r.Bool()
		if err != nil {
			return nil, err
		}
		return BoolPayload(v), nil
	case KindTensor:
		// Keep the wire view so a subsequent Restore copies bytes straight
		// onto the live tensor instead of paying for an intermediate
		// materialized copy it would immediately discard.
		d, err := r.Dense()
		if err != nil {
			return nil, err
		}
		return TensorPayload(d), nil
	case KindState:
		st := opt.NewState()
		err := decodeNamed(r, func(name string) error {
			v, err := r.Float64()
			st.Scalars[name] = v
			return err
		})
		if err != nil {
			return nil, err
		}
		err = decodeNamed(r, func(name string) error {
			d, err := r.Dense()
			st.Tensors[name] = d
			return err
		})
		if err != nil {
			return nil, err
		}
		return StatePayload{S: st}, nil
	case KindRNG:
		b, err := r.RawBytes()
		if err != nil {
			return nil, err
		}
		if len(b) != 16 {
			return nil, fmt.Errorf("%w: RNG payload length %d, want 16", codec.ErrCorrupt, len(b))
		}
		var p RNGPayload
		copy(p[:], b)
		return p, nil
	case KindOpaque:
		return OpaquePayload{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown payload kind %d", codec.ErrCorrupt, uint8(k))
	}
}

// decodeNamed reads a count and then that many (name, entry) pairs, calling
// entry to read each one's body. Names must be strictly ascending — the order
// Encode writes — so a duplicate or shuffled name is corruption rather than a
// silently dropped entry.
func decodeNamed(r *codec.Reader, entry func(name string) error) error {
	n, err := r.Uvarint()
	if err != nil {
		return err
	}
	prev := ""
	for i := uint64(0); i < n; i++ {
		name, err := r.String()
		if err != nil {
			return err
		}
		if i > 0 && name <= prev {
			return fmt.Errorf("%w: state entry %q out of order after %q", codec.ErrCorrupt, name, prev)
		}
		prev = name
		if err := entry(name); err != nil {
			return err
		}
	}
	return nil
}

// EncodePayload writes k's tag followed by the payload body.
func EncodePayload(w *codec.Writer, p Payload) {
	w.Uvarint(uint64(p.Kind()))
	p.Encode(w)
}

// EncodeLive writes v's current state in exactly the bytes
// EncodePayload(w, v.Snapshot()) would produce, without the snapshot's deep
// copy: tensors, model parameters and optimizer moments are encoded straight
// from the live tensors, which are only read and only until EncodeLive
// returns. It is the training thread's whole share of a checkpoint — into a
// buffer w was handed, one pass per tensor (a memcpy, or where the buffer
// already holds the bytes, a compare). The other kinds snapshot as usual:
// their payloads are a few bytes.
func EncodeLive(w *codec.Writer, v Value) {
	var p Payload
	switch b := v.(type) {
	case *Tensor:
		p = TensorPayload{T: b.T}
	case *Model:
		p = StatePayload{S: b.live()}
	case *Optimizer:
		p = StatePayload{S: b.O.Live()}
	default:
		p = v.Snapshot()
	}
	EncodePayload(w, p)
}

// Layout lays a section's bytes over a live value, so that a read lands in
// the value instead of in a buffer it would then be copied out of. Pieces,
// in order, tile the section: the structure bytes (kind tag, counts, names,
// shapes) land in scratch owned by the layout, and each float block in the
// backing array of the live tensor it restores. A read into the pieces is a
// restore exactly when the structure read is the structure EncodeLive writes
// for the value (Matches); otherwise Bytes reassembles what was read for the
// general decode-and-Restore path. A layout serves any number of reads, one
// at a time, for as long as it Fits its value.
type Layout struct {
	Pieces [][]byte

	scratch, want []byte
	spans         []span // the float blocks' memory, sorted, disjoint
	n             int
	kind          Kind
	of            []laidTensor // what was laid out, in Params order
}

// span is the address range [lo, hi) of one float block.
type span struct{ lo, hi uintptr }

// laidTensor is one tensor a layout lays a float block over, by name.
type laidTensor struct {
	name string
	t    *tensor.Tensor
}

// LiveLayout returns the layout of v's EncodeLive bytes, or nil where a read
// cannot be a restore: v is neither a *Model nor a *Tensor (the kinds whose
// Restore is only a copy per tensor), a model has two parameters of one name
// or two that share memory, or the host is big-endian.
func LiveLayout(v Value) *Layout {
	var w *codec.Writer
	var of []laidTensor
	ok := false
	switch b := v.(type) {
	case *Tensor:
		of = []laidTensor{{t: b.T}}
		if w, ok = codec.NewLayoutWriter(1); ok {
			EncodePayload(w, TensorPayload{T: b.T})
		}
	case *Model:
		// EncodeLive's bytes, without the state map it builds: a state of no
		// scalars and the parameters in name order.
		ps := b.M.Params()
		of = make([]laidTensor, len(ps))
		for i, p := range ps {
			of[i] = laidTensor{p.Name, p.Var.Value}
		}
		sorted := slices.SortedFunc(slices.Values(of), func(x, y laidTensor) int { return strings.Compare(x.name, y.name) })
		for i := 1; i < len(sorted); i++ {
			if sorted[i].name == sorted[i-1].name {
				return nil // Restore copies one entry into each; a read lands in one
			}
		}
		if w, ok = codec.NewLayoutWriter(len(sorted)); ok {
			w.Uvarint(uint64(KindState))
			w.Uvarint(0)
			w.Uvarint(uint64(len(sorted)))
			for _, p := range sorted {
				w.String(p.name)
				w.Tensor(p.t)
			}
		}
	}
	if !ok {
		return nil
	}
	views := w.Views()
	l := &Layout{want: w.Bytes(), Pieces: make([][]byte, 0, 2*len(views)+1), spans: make([]span, len(views)), kind: v.Kind(), of: of}
	l.scratch = make([]byte, len(l.want))
	at := 0
	for i, vw := range views {
		if vw.At > at {
			l.Pieces = append(l.Pieces, l.scratch[at:vw.At])
			at = vw.At
		}
		l.Pieces = append(l.Pieces, vw.B)
		l.n += len(vw.B)
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(vw.B)))
		l.spans[i] = span{lo, lo + uintptr(len(vw.B))}
	}
	if at < len(l.scratch) {
		l.Pieces = append(l.Pieces, l.scratch[at:])
	}
	l.n += len(l.scratch)
	slices.SortFunc(l.spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(l.spans); i++ {
		if l.spans[i].lo < l.spans[i-1].hi {
			return nil // tied parameters: two reads into one tensor
		}
	}
	return l
}

// Fits reports whether the layout still lays out v's encoding: v is the
// kind it was built for and holds the same tensors under the same names, in
// the same order. A tensor's shape and backing array are fixed for its
// lifetime, so that is every byte the layout depends on.
func (l *Layout) Fits(v Value) bool {
	switch b := v.(type) {
	case *Tensor:
		return l.kind == KindTensor && l.of[0].t == b.T
	case *Model:
		ps := b.M.Params()
		if l.kind != KindState || len(ps) != len(l.of) {
			return false
		}
		for i, p := range ps {
			if p.Name != l.of[i].name || p.Var.Value != l.of[i].t {
				return false
			}
		}
		return true
	}
	return false
}

// Overwrite drops the pending initializer draws of the tensors the layout
// lays float blocks over (tensor.Overwrite). Call it when a read into
// Pieces is issued: the read overwrites every one of them.
func (l *Layout) Overwrite() {
	for _, o := range l.of {
		o.t.Overwrite()
	}
}

// Len is the section length the layout tiles.
func (l *Layout) Len() int { return l.n }

// Matches reports whether the structure bytes read into the layout are those
// EncodeLive writes for the value: then the read restored it.
func (l *Layout) Matches() bool { return bytes.Equal(l.scratch, l.want) }

// Disjoint reports whether no float block of l shares memory with one of o.
// Two layouts read concurrently must be disjoint.
func (l *Layout) Disjoint(o *Layout) bool {
	a, b := l.spans, o.spans
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].hi <= b[0].lo:
			a = a[1:]
		case b[0].hi <= a[0].lo:
			b = b[1:]
		default:
			return false
		}
	}
	return true
}

// Bytes returns the section bytes read into the layout, assembled into a
// fresh buffer.
func (l *Layout) Bytes() []byte {
	out := make([]byte, 0, l.n)
	for _, p := range l.Pieces {
		out = append(out, p...)
	}
	return out
}

// Materialize returns p with every tensor in codec.Dense's materialized
// form: a decoded payload's views over its section buffer become tensors of
// their own, so the result keeps no reference to that buffer. A tensor
// already materialized is kept, not copied; the other kinds hold no buffer
// and come back as they are.
func Materialize(p Payload) Payload {
	switch q := p.(type) {
	case TensorPayload:
		return TensorPayload{T: codec.Dense(q).Tensor()}
	case StatePayload:
		st := &opt.State{Scalars: q.S.Scalars, Tensors: make(map[string]codec.Dense, len(q.S.Tensors))}
		for k, d := range q.S.Tensors {
			st.Tensors[k] = codec.Dense{T: d.Tensor()}
		}
		return StatePayload{S: st}
	}
	return p
}

// View points a live model's parameters, or a live tensor value, at the
// tensors of a materialized payload — the state Restore would copy in —
// without moving a byte, until End points them back at their own. The
// payload's tensors are not the view's to write (a payload cache lends one
// payload to every reader), so nothing may write through the value while
// the view lasts.
type View struct {
	params []nn.Param       // a model's parameters, in Params order
	tv     *Tensor          // or the tensor value
	own    []*tensor.Tensor // what each held before the view
	Lent   []*tensor.Tensor // what each holds during it
}

// NewView starts a view of p through v. It reports false, and leaves v as
// it was, where p cannot stand in for v's state: v is neither a *Model nor
// a *Tensor, p is not v's kind in materialized form, or an entry Restore
// would copy from is missing or shaped unlike the tensor it would overwrite.
func NewView(v Value, p Payload) (*View, bool) {
	switch b := v.(type) {
	case *Tensor:
		tp, ok := p.(TensorPayload)
		if !ok || tp.T == nil || !slices.Equal(tp.T.Shape(), b.T.Shape()) {
			return nil, false
		}
		w := &View{tv: b, own: []*tensor.Tensor{b.T}, Lent: []*tensor.Tensor{tp.T}}
		b.T = tp.T
		return w, true
	case *Model:
		sp, ok := p.(StatePayload)
		if !ok {
			return nil, false
		}
		ps := b.M.Params()
		w := &View{params: ps, own: make([]*tensor.Tensor, len(ps)), Lent: make([]*tensor.Tensor, len(ps))}
		for i, param := range ps {
			d, ok := sp.S.Tensors[param.Name]
			if !ok || d.T == nil || !slices.Equal(d.T.Shape(), param.Var.Value.Shape()) {
				return nil, false
			}
			w.Lent[i] = d.T
		}
		// Tied parameters share a Var: its last entry lands last, as Restore
		// leaves it, and End goes backwards so the Var gets its own back.
		for i, param := range ps {
			w.own[i], param.Var.Value = param.Var.Value, w.Lent[i]
		}
		return w, true
	}
	return nil, false
}

// End points the value back at its own tensors, as they were before the
// view began.
func (w *View) End() {
	if w.tv != nil {
		w.tv.T = w.own[0]
		return
	}
	for i := len(w.params) - 1; i >= 0; i-- {
		w.params[i].Var.Value = w.own[i]
	}
}

// DecodeTaggedPayload reads a kind tag then the payload body.
func DecodeTaggedPayload(r *codec.Reader) (Payload, error) {
	k, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if k > uint64(KindOpaque) { // before Kind(k) truncates it onto a valid tag
		return nil, fmt.Errorf("%w: unknown payload kind %d", codec.ErrCorrupt, k)
	}
	return DecodePayload(r, Kind(k))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// ---------- live values ----------

// Int is a mutable integer box.
type Int struct{ V int }

// Kind implements Value.
func (*Int) Kind() Kind { return KindInt }

// Snapshot implements Value.
func (b *Int) Snapshot() Payload { return IntPayload(b.V) }

// Restore implements Value.
func (b *Int) Restore(p Payload) error {
	ip, ok := p.(IntPayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	if int64(int(ip)) != int64(ip) {
		return fmt.Errorf("value: int payload %d does not fit an int", int64(ip))
	}
	b.V = int(ip)
	return nil
}

// SizeBytes implements Value.
func (*Int) SizeBytes() int { return 9 }

// Equal implements Value.
func (b *Int) Equal(o Value) bool {
	ob, ok := o.(*Int)
	return ok && ob.V == b.V
}

// Float is a mutable float box.
type Float struct{ V float64 }

// Kind implements Value.
func (*Float) Kind() Kind { return KindFloat }

// Snapshot implements Value.
func (b *Float) Snapshot() Payload { return FloatPayload(b.V) }

// Restore implements Value.
func (b *Float) Restore(p Payload) error {
	fp, ok := p.(FloatPayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	b.V = float64(fp)
	return nil
}

// SizeBytes implements Value.
func (*Float) SizeBytes() int { return 8 }

// Equal implements Value.
func (b *Float) Equal(o Value) bool {
	ob, ok := o.(*Float)
	return ok && ob.V == b.V
}

// String is a mutable string box.
type String struct{ V string }

// Kind implements Value.
func (*String) Kind() Kind { return KindString }

// Snapshot implements Value.
func (b *String) Snapshot() Payload { return StringPayload(b.V) }

// Restore implements Value.
func (b *String) Restore(p Payload) error {
	sp, ok := p.(StringPayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	b.V = string(sp)
	return nil
}

// SizeBytes implements Value.
func (b *String) SizeBytes() int { return len(b.V) + 4 }

// Equal implements Value.
func (b *String) Equal(o Value) bool {
	ob, ok := o.(*String)
	return ok && ob.V == b.V
}

// Bool is a mutable bool box.
type Bool struct{ V bool }

// Kind implements Value.
func (*Bool) Kind() Kind { return KindBool }

// Snapshot implements Value.
func (b *Bool) Snapshot() Payload { return BoolPayload(b.V) }

// Restore implements Value.
func (b *Bool) Restore(p Payload) error {
	bp, ok := p.(BoolPayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	b.V = bool(bp)
	return nil
}

// SizeBytes implements Value.
func (*Bool) SizeBytes() int { return 1 }

// Equal implements Value.
func (b *Bool) Equal(o Value) bool {
	ob, ok := o.(*Bool)
	return ok && ob.V == b.V
}

// Tensor wraps a live tensor; restore copies data in place so views held
// elsewhere stay valid.
type Tensor struct{ T *tensor.Tensor }

// Kind implements Value.
func (*Tensor) Kind() Kind { return KindTensor }

// Snapshot implements Value.
func (b *Tensor) Snapshot() Payload { return TensorPayload{T: b.T.Clone()} }

// Restore implements Value.
func (b *Tensor) Restore(p Payload) error {
	tp, ok := p.(TensorPayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	if err := codec.Dense(tp).CopyInto(b.T); err != nil {
		return fmt.Errorf("value: tensor restore: %w", err)
	}
	return nil
}

// SizeBytes implements Value.
func (b *Tensor) SizeBytes() int { return 8*b.T.Len() + 8 }

// Equal implements Value.
func (b *Tensor) Equal(o Value) bool {
	ob, ok := o.(*Tensor)
	return ok && tensor.Equal(b.T, ob.T)
}

// Model wraps a live nn.Module. Snapshotting captures every parameter;
// restoring copies parameter data into the live module, which replay has
// already reconstructed by re-executing program setup.
type Model struct{ M nn.Module }

// Kind implements Value.
func (*Model) Kind() Kind { return KindState }

// Snapshot implements Value.
func (b *Model) Snapshot() Payload { return StatePayload{S: b.live().Clone()} }

// live is the model's state with every entry borrowing its parameter's own
// tensor (see opt.Optimizer.Live).
func (b *Model) live() *opt.State {
	st := opt.NewState()
	for _, p := range b.M.Params() {
		st.Tensors[p.Name] = codec.Dense{T: p.Var.Value}
	}
	return st
}

// Restore implements Value: every parameter of the live module is
// overwritten from the entry of its name, which must be present with a
// matching shape.
func (b *Model) Restore(p Payload) error {
	sp, ok := p.(StatePayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	for _, param := range b.M.Params() {
		d, ok := sp.S.Tensors[param.Name]
		if !ok {
			return fmt.Errorf("value: model restore: missing parameter %q", param.Name)
		}
		if err := d.CopyInto(param.Var.Value); err != nil {
			return fmt.Errorf("value: model restore %q: %w", param.Name, err)
		}
	}
	return nil
}

// SizeBytes implements Value.
func (b *Model) SizeBytes() int {
	n := 0
	for _, p := range b.M.Params() {
		n += 8*p.Var.Value.Len() + len(p.Name) + 8
	}
	return n
}

// Equal implements Value.
func (b *Model) Equal(o Value) bool {
	ob, ok := o.(*Model)
	return ok && nn.StatesEqual(b.M, ob.M)
}

// Optimizer wraps a live optimizer; the wrapped object also drives Flor's
// changeset augmentation (it exposes the model it mutates).
type Optimizer struct{ O opt.Optimizer }

// Kind implements Value.
func (*Optimizer) Kind() Kind { return KindState }

// Snapshot implements Value.
func (b *Optimizer) Snapshot() Payload { return StatePayload{S: b.O.Snapshot()} }

// Restore implements Value.
func (b *Optimizer) Restore(p Payload) error {
	sp, ok := p.(StatePayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	return b.O.Restore(sp.S)
}

// SizeBytes implements Value.
func (b *Optimizer) SizeBytes() int { return b.O.SizeBytes() }

// Equal implements Value.
func (b *Optimizer) Equal(o Value) bool {
	ob, ok := o.(*Optimizer)
	return ok && b.O.Snapshot().Equal(ob.O.Snapshot())
}

// Scheduler wraps a live LR scheduler.
type Scheduler struct{ S opt.Scheduler }

// Kind implements Value.
func (*Scheduler) Kind() Kind { return KindState }

// Snapshot implements Value.
func (b *Scheduler) Snapshot() Payload { return StatePayload{S: b.S.Snapshot()} }

// Restore implements Value.
func (b *Scheduler) Restore(p Payload) error {
	sp, ok := p.(StatePayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	return b.S.Restore(sp.S)
}

// SizeBytes implements Value.
func (b *Scheduler) SizeBytes() int { return b.S.SizeBytes() }

// Equal implements Value.
func (b *Scheduler) Equal(o Value) bool {
	ob, ok := o.(*Scheduler)
	return ok && b.S.Snapshot().Equal(ob.S.Snapshot())
}

// RNG wraps a live random generator whose consumption inside a loop is a
// side-effect that checkpoints must capture.
type RNG struct{ R *xrand.RNG }

// Kind implements Value.
func (*RNG) Kind() Kind { return KindRNG }

// Snapshot implements Value.
func (b *RNG) Snapshot() Payload { return RNGPayload(b.R.State()) }

// Restore implements Value.
func (b *RNG) Restore(p Payload) error {
	rp, ok := p.(RNGPayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	b.R.SetState([16]byte(rp))
	return nil
}

// SizeBytes implements Value.
func (*RNG) SizeBytes() int { return 17 }

// Equal implements Value.
func (b *RNG) Equal(o Value) bool {
	ob, ok := o.(*RNG)
	return ok && b.R.Equal(ob.R)
}

// OpaquePayload is the (empty) snapshot of an Opaque value.
type OpaquePayload struct{}

// Kind implements Payload.
func (OpaquePayload) Kind() Kind { return KindOpaque }

// Encode implements Payload.
func (OpaquePayload) Encode(*codec.Writer) {}

// SizeBytes implements Payload.
func (OpaquePayload) SizeBytes() int { return 0 }

// Opaque wraps a runtime object that does not need checkpointing: dataset
// handles, trainer closures, and other objects that programs reconstruct
// deterministically in setup. An Opaque value must never appear in a loop
// changeset with meaningful state; its snapshot captures nothing.
type Opaque struct{ V any }

// Kind implements Value.
func (*Opaque) Kind() Kind { return KindOpaque }

// Snapshot implements Value.
func (*Opaque) Snapshot() Payload { return OpaquePayload{} }

// Restore implements Value.
func (b *Opaque) Restore(p Payload) error {
	if _, ok := p.(OpaquePayload); !ok {
		return restoreMismatch(b, p)
	}
	return nil
}

// SizeBytes implements Value.
func (*Opaque) SizeBytes() int { return 0 }

// Equal implements Value.
func (b *Opaque) Equal(o Value) bool {
	ob, ok := o.(*Opaque)
	return ok && ob.V == b.V
}

func restoreMismatch(v Value, p Payload) error {
	return fmt.Errorf("value: cannot restore %s payload into %s value", p.Kind(), v.Kind())
}
