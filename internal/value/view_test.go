package value

import (
	"testing"

	"flor.dev/flor/internal/autograd"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// decoded is p encoded and decoded: every tensor in view form.
func decoded(t *testing.T, p Payload) Payload {
	t.Helper()
	w := codec.NewWriter()
	EncodePayload(w, p)
	d, err := DecodeTaggedPayload(codec.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestViewShowsThePayloadAndEndsWhereItBegan: a view of a materialized
// payload makes a model or a tensor read as the payload, sharing its
// tensors, and End gives the value its own tensors back, untouched. A
// payload in view form, of another kind, or of another shape is refused and
// leaves the value as it was.
func TestViewShowsThePayloadAndEndsWhereItBegan(t *testing.T) {
	live := &Model{M: nn.NewLinear("fc", xrand.New(1), 3, 2)}
	before := live.Snapshot()
	other := &Model{M: nn.NewLinear("fc", xrand.New(9), 3, 2)}
	own := make([]*tensor.Tensor, len(live.M.Params()))
	for i, p := range live.M.Params() {
		own[i] = p.Var.Value
	}
	for _, refused := range []Payload{decoded(t, other.Snapshot()), TensorPayload{T: tensor.New(2)}, (&Model{M: nn.NewLinear("fc", xrand.New(9), 2, 2)}).Snapshot()} {
		if _, ok := NewView(live, refused); ok {
			t.Fatalf("NewView took a %T it cannot stand in for", refused)
		}
		for i, p := range live.M.Params() {
			if p.Var.Value != own[i] {
				t.Fatal("a refused view changed the model")
			}
		}
	}
	p := Materialize(decoded(t, other.Snapshot()))
	w, ok := NewView(live, p)
	if !ok || !live.Equal(other) {
		t.Fatalf("NewView = %v; the model does not read as the payload", ok)
	}
	for i, param := range live.M.Params() {
		if param.Var.Value != w.Lent[i] || param.Var.Value != p.(StatePayload).S.Tensors[param.Name].T {
			t.Fatal("the view copied instead of pointing at the payload's tensors")
		}
	}
	w.End()
	for i, param := range live.M.Params() {
		if param.Var.Value != own[i] {
			t.Fatal("End did not give the model its own tensors back")
		}
	}
	if !live.Snapshot().(StatePayload).S.Equal(before.(StatePayload).S) {
		t.Fatal("the model's own tensors changed during the view")
	}

	tv := &Tensor{T: tensor.New(4)}
	ownT := tv.T
	tp := Materialize(decoded(t, TensorPayload{T: tensor.Full(3, 4)}))
	w, ok = NewView(tv, tp)
	if !ok || tv.T != tp.(TensorPayload).T {
		t.Fatal("a tensor view does not point at the payload's tensor")
	}
	w.End()
	if tv.T != ownT {
		t.Fatal("End did not give the tensor value its own tensor back")
	}
}

// TestViewOfTiedParameters: two parameters that share a Var read as the
// last entry, as Restore would leave them, and End hands the Var its own
// tensor back.
func TestViewOfTiedParameters(t *testing.T) {
	v := autograd.NewParam(tensor.New(2))
	own := v.Value
	m := &Model{M: params{{Name: "a", Var: v}, {Name: "b", Var: v}}}
	src := &Model{M: params{{Name: "a", Var: autograd.NewParam(tensor.Full(1, 2))}, {Name: "b", Var: autograd.NewParam(tensor.Full(2, 2))}}}
	p := src.Snapshot()
	if err := m.Restore(p); err != nil {
		t.Fatal(err)
	}
	restored := own.Clone()
	clear(own.Data())
	w, ok := NewView(m, p)
	if !ok || !tensor.Equal(v.Value, restored) {
		t.Fatalf("NewView = %v; the tied Var reads %v, Restore left %v", ok, v.Value.Data(), restored.Data())
	}
	w.End()
	if v.Value != own {
		t.Fatal("End did not give the tied Var its own tensor back")
	}
}
