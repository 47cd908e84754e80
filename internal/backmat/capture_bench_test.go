package backmat

import (
	"slices"
	"testing"

	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// BenchmarkCapture times capture — the training thread's share of a
// checkpoint — of 8 MiB in four tensors into a buffer set that holds the
// previous capture, on the two inputs where comparing before copying can only
// cost: dirty, where every word differs from what the buffer holds (one
// early-exit compare per chunk on top of the copy), and lastword, the
// adversarial case, where every chunk compares equal until its last words and
// is then copied anyway (a full compare on top of a full copy).
func BenchmarkCapture(b *testing.B) {
	const tensors, floats = 4, 2 << 20 / 8
	build := func(seed uint64) []NamedValue {
		r := xrand.New(seed)
		vals := make([]NamedValue, tensors)
		for i := range vals {
			t := tensor.New(floats)
			for j := range t.Data() {
				t.Data()[j] = r.Float64()
			}
			vals[i] = NamedValue{Name: string(rune('a' + i)), V: &value.Tensor{T: t}}
		}
		return vals
	}
	for _, c := range []struct {
		name string
		twin func() []NamedValue // what alternates with build(1) in the buffers
	}{
		{"dirty", func() []NamedValue { return build(2) }},
		{"lastword", func() []NamedValue {
			vals := build(1)
			for _, nv := range vals {
				d := nv.V.(*value.Tensor).T.Data()
				for end := chunkFloats; end <= len(d); end += chunkFloats {
					d[end-2]++ // the last float wholly inside the stream's chunk
				}
			}
			return vals
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			states := [2][]NamedValue{build(1), c.twin()}
			set := capture(states[0], bufferSet{})
			b.SetBytes(tensors * floats * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set = capture(states[(i+1)%2], set)
			}
			for i := range set.known {
				// The stream ends a header's length past its last full chunk.
				if full := set.known[i].Clean[:floats/chunkFloats]; slices.Contains(full, true) {
					b.Fatalf("tensor %d: capture found a full chunk unchanged: %v", i, full)
				}
			}
		})
	}
}
