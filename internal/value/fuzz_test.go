package value

import (
	"bytes"
	"testing"

	"flor.dev/flor/internal/codec"
)

// fuzzSeeds returns one tagged encoding of every payload kind — state with
// and without tensor entries — so the fuzzer mutates the structured format
// rather than noise.
func fuzzSeeds() [][]byte {
	vals, _ := liveFixtures()
	var seeds [][]byte
	for _, v := range vals {
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
