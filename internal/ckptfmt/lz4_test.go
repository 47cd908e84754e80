package ckptfmt

import (
	"bytes"
	"errors"
	"testing"

	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/xrand"
)

// lz4Cases covers the block shapes the codec must round-trip: empty, tiny
// (below the match limit), pure runs (RLE via overlapping matches), long
// repeats (extended match lengths), incompressible noise (literal runs with
// 255-extensions), and mixed content.
func lz4Cases() [][]byte {
	rng := xrand.New(0x124C)
	noise := make([]byte, 300<<10)
	for i := range noise {
		noise[i] = byte(rng.Uint64())
	}
	mixed := make([]byte, 64<<10)
	for i := range mixed {
		if i%7 < 4 {
			mixed[i] = 0xAB
		} else {
			mixed[i] = byte(rng.Uint64())
		}
	}
	return [][]byte{
		{},
		[]byte("a"),
		[]byte("hello world,"),
		[]byte("hello world, hello"),
		bytes.Repeat([]byte{0}, 1<<20),
		bytes.Repeat([]byte("abcd"), 10000),
		bytes.Repeat([]byte("0123456789abcdef"), 3),
		noise,
		mixed,
	}
}

func TestLZ4RoundTrip(t *testing.T) {
	for i, raw := range lz4Cases() {
		enc := lz4Compress(raw, nil)
		dst := make([]byte, len(raw))
		if err := lz4Decompress(enc, dst); err != nil {
			t.Fatalf("case %d (%d bytes): decompress: %v", i, len(raw), err)
		}
		if !bytes.Equal(dst, raw) {
			t.Fatalf("case %d (%d bytes): round-trip mismatch", i, len(raw))
		}
		if len(enc) > lz4CompressBound(len(raw)) {
			t.Fatalf("case %d: encoded %d bytes exceeds bound %d", i, len(enc), lz4CompressBound(len(raw)))
		}
	}
}

func TestLZ4Deterministic(t *testing.T) {
	for i, raw := range lz4Cases() {
		a := lz4Compress(raw, nil)
		b := lz4Compress(raw, nil)
		if !bytes.Equal(a, b) {
			t.Fatalf("case %d: non-deterministic encoding", i)
		}
	}
}

func TestBuildStyleLZ4Frames(t *testing.T) {
	compressible := bytes.Repeat([]byte("flor hindsight "), 4096)
	f := BuildStyle(compressible, StyleLZ4)
	if f.Style != StyleLZ4 {
		t.Fatalf("compressible chunk built style %d, want StyleLZ4", f.Style)
	}
	if len(f.Enc) >= len(compressible) {
		t.Fatalf("lz4 frame did not shrink: %d >= %d", len(f.Enc), len(compressible))
	}
	// Round-trip through the full frame wire format.
	wire := f.Marshal()
	g, n, err := Parse(wire)
	if err != nil || n != len(wire) {
		t.Fatalf("parse: n=%d err=%v", n, err)
	}
	raw, err := g.Decode()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(raw, compressible) {
		t.Fatal("lz4 frame round-trip mismatch")
	}
	// Incompressible chunks must fall back to raw even under a forced
	// StyleLZ4 preference.
	rng := xrand.New(7)
	noise := make([]byte, 8192)
	for i := range noise {
		noise[i] = byte(rng.Uint64())
	}
	if f := BuildStyle(noise, StyleLZ4); f.Style != StyleRaw {
		t.Fatalf("incompressible chunk built style %d, want StyleRaw fallback", f.Style)
	}
}

// TestLZ4DecompressCorrupt pins the failure mode of every malformed block
// shape: a typed codec.ErrCorrupt, never a panic or a silent short result.
func TestLZ4DecompressCorrupt(t *testing.T) {
	raw := bytes.Repeat([]byte("abcdefgh"), 64)
	enc := lz4Compress(raw, nil)
	cases := map[string][]byte{
		"empty src":        {},
		"truncated":        enc[:len(enc)/2],
		"missing token":    enc[:0],
		"offset too large": {0x01, 'x', 0xff, 0xff, 0x00},
		"zero offset":      {0x11, 'x', 0x00, 0x00, 0x00},
		"literal overrun":  {0xf0, 0xff, 0xff},
	}
	for name, bad := range cases {
		dst := make([]byte, len(raw))
		if err := lz4Decompress(bad, dst); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want codec.ErrCorrupt", name, err)
		}
	}
	// A block decoding short of the destination is corrupt too.
	small := lz4Compress(raw[:16], nil)
	dst := make([]byte, len(raw))
	if err := lz4Decompress(small, dst); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("short block: err = %v, want codec.ErrCorrupt", err)
	}
}

// TestDecodeIntoTrustedMatchesDecode pins that the trusted fast path (hash
// recompute skipped) yields byte-identical results to the checked one on
// every style.
func TestDecodeIntoTrustedMatchesDecode(t *testing.T) {
	payloads := lz4Cases()
	for _, style := range []byte{StyleRaw, StyleDeflate, StyleLZ4} {
		for i, raw := range payloads {
			f := BuildStyle(raw, style)
			a, err := f.DecodeInto(make([]byte, len(raw)))
			if err != nil {
				t.Fatalf("style %d case %d: DecodeInto: %v", style, i, err)
			}
			b, err := f.DecodeIntoTrusted(make([]byte, len(raw)))
			if err != nil {
				t.Fatalf("style %d case %d: DecodeIntoTrusted: %v", style, i, err)
			}
			if !bytes.Equal(a, b) || !bytes.Equal(a, raw) {
				t.Fatalf("style %d case %d: trusted/checked decode mismatch", style, i)
			}
		}
	}
}

func TestArenaReuse(t *testing.T) {
	a := NewArena()
	b := a.Get(1 << 20)
	if len(b) != 1<<20 {
		t.Fatalf("Get returned %d bytes", len(b))
	}
	a.Put(b)
	c := a.Get(512)
	if len(c) != 512 {
		t.Fatalf("Get returned %d bytes", len(c))
	}
	// Same backing array when the pooled buffer is large enough (pool reuse
	// is best-effort, so only check capacity plausibility, not identity).
	if cap(c) != 512 && cap(c) != 1<<20 {
		t.Fatalf("unexpected capacity %d", cap(c))
	}
	a.Put(c)
}
