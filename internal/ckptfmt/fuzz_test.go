package ckptfmt

import (
	"bytes"
	"errors"
	"testing"

	"flor.dev/flor/internal/codec"
)

// fuzzSeeds returns valid encoded frames spanning every style and several
// payload shapes, so the fuzzer starts from the structured format rather
// than random noise. Stores write only raw frames, but the decoders still
// read deflate and LZ4 ones, so each payload is seeded in all three styles
// (a compressing style that cannot shrink a payload falls back to raw).
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	payloads := [][]byte{
		{},
		[]byte("x"),
		[]byte("hello hindsight logging"),
		bytes.Repeat([]byte{0}, 4096), // compressible
		bytes.Repeat([]byte{0xA5, 0x5A, 0x13, 7}, 1024), // patterned
		bytes.Repeat([]byte("ab"), 2048),                // overlapping LZ4 matches (RLE mode)
	}
	// A high-entropy payload that stays raw.
	noisy := make([]byte, 1024)
	state := uint32(0x9E3779B9)
	for i := range noisy {
		state = state*1664525 + 1013904223
		noisy[i] = byte(state >> 24)
	}
	payloads = append(payloads, noisy)
	for _, p := range payloads {
		for _, style := range []byte{StyleRaw, StyleDeflate, StyleLZ4} {
			if f := BuildStyle(p, style); f.Style == style {
				seeds = append(seeds, f.Marshal())
			}
		}
	}
	return seeds
}

// FuzzDecodeFrame asserts the frame decoder's contract on arbitrary input:
// it never panics, any failure surfaces codec.ErrCorrupt, and an input that
// parses and decodes cleanly round-trips bit-identically through re-encode.
// This extends the corruption battery of the checkpoint format: the CRC and
// content hash must catch every mutation that changes decoded bytes.
func FuzzDecodeFrame(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		frame, n, err := Parse(b)
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("Parse error is not ErrCorrupt: %v", err)
			}
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("Parse consumed %d of %d bytes", n, len(b))
		}
		raw, err := frame.Decode()
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("Decode error is not ErrCorrupt: %v", err)
			}
			return
		}
		if len(raw) != frame.RawLen {
			t.Fatalf("decoded %d bytes, header says %d", len(raw), frame.RawLen)
		}
		if HashChunk(raw) != frame.Hash {
			t.Fatal("decoded bytes do not match the frame's content hash")
		}
		// A clean frame round-trips: rebuilding from the decoded bytes in
		// the frame's own style and decoding again yields the same payload.
		again := BuildStyle(raw, frame.Style)
		raw2, err := again.Decode()
		if err != nil || !bytes.Equal(raw, raw2) {
			t.Fatalf("round-trip mismatch: %v", err)
		}
	})
}

// TestFuzzSeedsDecode pins the seed corpus itself: every seed parses,
// decodes, and any single-byte flip in the body is rejected with
// codec.ErrCorrupt (decode never silently succeeds on a mutation).
func TestFuzzSeedsDecode(t *testing.T) {
	for _, seed := range fuzzSeeds() {
		frame, n, err := Parse(seed)
		if err != nil || n != len(seed) {
			t.Fatalf("seed does not parse cleanly: n=%d err=%v", n, err)
		}
		if _, err := frame.Decode(); err != nil {
			t.Fatalf("seed does not decode: %v", err)
		}
		for i := 0; i < len(seed); i += 7 {
			mut := append([]byte(nil), seed...)
			mut[i] ^= 0x40
			f2, _, err := Parse(mut)
			if err == nil {
				_, err = f2.Decode()
			}
			if err == nil {
				// The flip may hit padding-free varint space and still form
				// a self-consistent frame only if it reproduced the
				// original; anything else must be caught.
				raw2, _ := f2.Decode()
				raw, _ := frame.Decode()
				if !bytes.Equal(raw, raw2) {
					t.Fatalf("byte flip at %d decoded divergent payload undetected", i)
				}
				continue
			}
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("byte flip at %d: error is not ErrCorrupt: %v", i, err)
			}
		}
	}
}

// directorySeeds returns encoded directories: empty, sectioned with empty,
// single-chunk and multi-chunk sections, and one whose flag byte is the 1 an
// older build wrote on an opaque checkpoint.
func directorySeeds() [][]byte {
	dirs := []*Directory{
		{},
		{Sections: []SectionRef{{Name: "", Chunks: []ChunkRef{{Hash: HashChunk([]byte("blob")), RawLen: 4}}}}},
		{Sections: []SectionRef{
			{Name: "net", Chunks: []ChunkRef{{Hash: HashChunk([]byte("a")), RawLen: DefaultChunkSize}, {Hash: HashChunk([]byte("b")), RawLen: 100}}},
			{Name: "opt"},
			{Name: "lr", Chunks: []ChunkRef{{Hash: HashChunk([]byte("c")), RawLen: 9}}},
		}},
	}
	var seeds [][]byte
	for _, d := range dirs {
		seeds = append(seeds, EncodeDirectory(d))
	}
	return append(seeds, flagged(seeds[1], 1))
}

// FuzzDecodeDirectory asserts the segment-directory decoder's contract on
// arbitrary input: it never panics, any failure surfaces codec.ErrCorrupt,
// every length it returns is non-negative and sums without overflow, and a
// directory that decodes re-encodes to the bytes it was decoded from.
func FuzzDecodeDirectory(f *testing.F) {
	for _, seed := range directorySeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeDirectory(b)
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("DecodeDirectory error is not ErrCorrupt: %v", err)
			}
			return
		}
		total := 0
		for _, s := range d.Sections {
			for _, c := range s.Chunks {
				if c.RawLen < 0 || total+c.RawLen < total {
					t.Fatalf("section %q: chunk length %d after %d", s.Name, c.RawLen, total)
				}
				total += c.RawLen
			}
		}
		if enc := EncodeDirectory(d); !bytes.HasPrefix(b, enc) {
			t.Fatalf("decoded directory re-encodes to %x, not a prefix of %x", enc, b)
		}
	})
}
