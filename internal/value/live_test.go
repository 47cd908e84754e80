package value

import (
	"bytes"
	"slices"
	"testing"

	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// liveFixtures builds one value of every kind a checkpoint can carry, twice
// from the same recipe: the pair is Equal, shares nothing, and the second is
// what a replay's setup would have reconstructed before restoring into it.
func liveFixtures() (vals, twins map[string]Value) {
	build := func() map[string]Value {
		step := func(m nn.Module, o opt.Optimizer) {
			for _, p := range m.Params() {
				p.Var.Grad = tensor.Full(0.5, p.Var.Value.Shape()...)
			}
			o.Step()
		}
		m := nn.NewLinear("fc", xrand.New(1), 3, 2)
		plain, momentum, adam := opt.NewSGD(m, 0.1, 0, 0), opt.NewSGD(m, 0.1, 0.9, 1e-4), opt.NewAdamW(m, 0.01, 0.1)
		step(m, plain)
		step(m, momentum)
		step(m, adam)
		stepLR, cosine := opt.NewStepLR(plain, 2, 0.5), opt.NewCosineLR(adam, 10)
		stepLR.Step()
		cosine.Step()
		rng := xrand.New(3)
		rng.Uint64()
		handle := "dataset"
		return map[string]Value{
			"int": &Int{V: -7}, "float": &Float{V: 2.5}, "string": &String{V: "epoch-3"}, "bool": &Bool{V: true},
			"tensor": &Tensor{T: tensor.Randn(xrand.New(2), 1, 4, 3)}, "empty tensor": &Tensor{T: tensor.New(0, 5)},
			"model": &Model{M: m}, "sgd": &Optimizer{O: plain}, "sgd momentum": &Optimizer{O: momentum},
			"adamw": &Optimizer{O: adam}, "steplr": &Scheduler{S: stepLR}, "cosinelr": &Scheduler{S: cosine},
			"rng": &RNG{R: rng}, "opaque": &Opaque{V: handle},
		}
	}
	return build(), build()
}

// scramble moves v off its recipe's state, so that restoring is observable.
func scramble(t *testing.T, v Value) {
	t.Helper()
	switch b := v.(type) {
	case *Int:
		b.V++
	case *Float:
		b.V++
	case *String:
		b.V += "?"
	case *Bool:
		b.V = !b.V
	case *Tensor:
		b.T.Fill(99)
	case *Model:
		for _, p := range b.M.Params() {
			p.Var.Value.Fill(99)
		}
	case *Optimizer:
		b.O.SetLR(99)
		for _, p := range b.O.Model().Params() {
			p.Var.Grad = tensor.Full(7, p.Var.Value.Shape()...)
		}
		b.O.Step()
	case *Scheduler:
		b.S.Step()
	case *RNG:
		b.R.Uint64()
	case *Opaque: // captures nothing
	default:
		t.Fatalf("no scramble for %T", v)
	}
}

// TestEncodeLiveMatchesSnapshotEncoding pins the capture contract for every
// kind: encoding the live value gives, byte for byte, what encoding its
// snapshot gives — into a writer that grows and into a dirty buffer handed
// over at exactly the needed size alike — and those bytes decode to a payload
// that restores an Equal value.
func TestEncodeLiveMatchesSnapshotEncoding(t *testing.T) {
	vals, twins := liveFixtures()
	for name, v := range vals {
		t.Run(name, func(t *testing.T) {
			w := codec.NewWriter()
			EncodePayload(w, v.Snapshot())
			want := w.Bytes()

			grown := codec.NewWriter()
			EncodeLive(grown, v)
			if !bytes.Equal(grown.Bytes(), want) {
				t.Fatalf("live encoding\n%x\nsnapshot encoding\n%x", grown.Bytes(), want)
			}
			handed := bytes.Repeat([]byte{0xAA}, len(want))
			into := codec.NewWriterInto(handed, 64)
			EncodeLive(into, v)
			if got := into.Bytes(); !bytes.Equal(got, want) || (len(got) > 0 && &got[0] != &handed[0]) {
				t.Fatalf("encoding into a handed buffer gave %x (in place: %v), want %x", got, len(got) > 0 && &got[0] == &handed[0], want)
			}
			// Encoded again over its own bytes, every granule compares clean
			// and the stream is still the same: no encoder bypasses the compare.
			over := codec.NewWriterInto(into.Bytes(), 64)
			EncodeLive(over, v)
			if got := over.Bytes(); !bytes.Equal(got, want) || slices.Contains(over.Clean(), false) {
				t.Fatalf("re-encoding an unchanged value gave %x, clean %v; want %x, all clean", got, over.Clean(), want)
			}

			r := codec.NewReader(grown.Bytes())
			p, err := DecodeTaggedPayload(r)
			if err != nil || r.Remaining() != 0 {
				t.Fatalf("decode: %v, %d bytes left", err, r.Remaining())
			}
			twin := twins[name]
			scramble(t, twin)
			if stateless := name == "opaque" || name == "empty tensor"; !stateless && twin.Equal(v) {
				t.Fatal("scrambled twin still equals the original; the restore below would prove nothing")
			}
			if err := twin.Restore(p); err != nil {
				t.Fatal(err)
			}
			if !twin.Equal(v) {
				t.Fatal("value restored from the live encoding differs from the value encoded")
			}
		})
	}
}

// TestEncodeLiveBorrowsNothingPastReturn: the bytes are the state at the
// call. Mutating the value afterwards changes neither them nor what a later
// snapshot-free encode of the new state produces into the same buffer.
func TestEncodeLiveBorrowsNothingPastReturn(t *testing.T) {
	vals, _ := liveFixtures()
	for _, name := range []string{"tensor", "model", "sgd momentum", "adamw"} {
		v := vals[name]
		w := codec.NewWriter()
		EncodeLive(w, v)
		before := bytes.Clone(w.Bytes())
		scramble(t, v)
		if !bytes.Equal(w.Bytes(), before) {
			t.Fatalf("%s: encoded bytes changed when the live value did", name)
		}
		again := codec.NewWriterInto(w.Bytes(), 64)
		EncodeLive(again, v)
		if bytes.Equal(again.Bytes(), before) {
			t.Fatalf("%s: re-encoding the mutated value reproduced the old bytes", name)
		}
	}
}
