package value

import (
	"bytes"
	"testing"

	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// fuzzSeeds returns one tagged encoding of every payload kind — state with
// and without tensor entries — so the fuzzer mutates the structured format
// rather than noise.
func fuzzSeeds() [][]byte {
	m := nn.NewLinear("fc", xrand.New(1), 3, 2)
	o := opt.NewAdamW(m, 0.01, 0.1)
	for _, p := range m.Params() {
		p.Var.Grad = tensor.Full(0.5, p.Var.Value.Shape()...)
	}
	o.Step()
	var seeds [][]byte
	for _, v := range []Value{
		&Int{V: -7}, &Float{V: 2.5}, &String{V: "epoch-3"}, &Bool{V: true},
		&Tensor{T: tensor.Randn(xrand.New(2), 1, 4, 3)}, &Tensor{T: tensor.New(0, 5)},
		&Model{M: m}, &Optimizer{O: o}, &Scheduler{S: opt.NewCosineLR(o, 10)},
		&RNG{R: xrand.New(3)}, &Opaque{},
	} {
		w := codec.NewWriter()
		EncodePayload(w, v.Snapshot())
		seeds = append(seeds, w.Bytes())
	}
	return seeds
}

// FuzzDecodeTaggedPayload asserts the payload decoder's contract on arbitrary
// input: it never panics (an overflowing tensor shape, a truncated block, an
// unknown tag are errors), and whatever decodes re-encodes to exactly the
// bytes it was decoded from — so a decoded view can stand in for the payload
// that was written, and no accepted input has two readings.
func FuzzDecodeTaggedPayload(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r := codec.NewReader(b)
		p, err := DecodeTaggedPayload(r)
		if err != nil {
			return
		}
		w := codec.NewWriter()
		EncodePayload(w, p)
		if consumed := b[:len(b)-r.Remaining()]; !bytes.Equal(w.Bytes(), consumed) {
			t.Fatalf("%s payload decoded from %x re-encodes to %x", p.Kind(), consumed, w.Bytes())
		}
		_ = p.SizeBytes()
	})
}
