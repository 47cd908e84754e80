package ckptfmt

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/xrand"
)

// randomBytes returns n bytes of incompressible (float-mantissa-like) data.
func randomBytes(n int, seed uint64) []byte {
	rng := xrand.New(seed)
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

func TestFrameRoundTripRaw(t *testing.T) {
	raw := randomBytes(4096, 7)
	f := BuildStyle(raw, StyleRaw)
	if f.Style != StyleRaw {
		t.Fatalf("raw chunk got style %d, want raw", f.Style)
	}
	wire := f.Marshal()
	g, consumed, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(wire) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(wire))
	}
	got, err := g.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("raw frame round trip mismatch")
	}
}

func TestFrameRoundTripDeflate(t *testing.T) {
	raw := bytes.Repeat([]byte("frozen layer weights "), 1000)
	f := BuildStyle(raw, StyleDeflate)
	if f.Style != StyleDeflate {
		t.Fatalf("compressible chunk got style %d, want deflate", f.Style)
	}
	if len(f.Enc) >= len(raw) {
		t.Fatalf("deflate frame did not shrink: %d >= %d", len(f.Enc), len(raw))
	}
	g, _, err := Parse(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("deflate frame round trip mismatch")
	}
}

// TestTinyChunksStayRaw: a compressing style cannot shrink a tiny chunk, so
// its encoder falls back to the verbatim frame.
func TestTinyChunksStayRaw(t *testing.T) {
	for _, style := range []byte{StyleDeflate, StyleLZ4} {
		if f := BuildStyle([]byte("short"), style); f.Style != StyleRaw {
			t.Fatalf("style %d: tiny chunk got style %d, want raw", style, f.Style)
		}
	}
}

func TestZeroFilledTensorCompresses(t *testing.T) {
	// A freshly initialized tensor is all zero bytes — the best case for
	// either compressing encoder.
	raw := make([]byte, 64<<10)
	for _, style := range []byte{StyleDeflate, StyleLZ4} {
		f := BuildStyle(raw, style)
		if f.Style != style {
			t.Fatalf("zero chunk got style %d, want %d", f.Style, style)
		}
		if len(f.Enc) > len(raw)/100 {
			t.Fatalf("style %d: zero chunk barely compressed: %d bytes", style, len(f.Enc))
		}
	}
}

// TestEveryFlippedByteDetected is the corruption guarantee: a flip anywhere
// in a frame — header, hash, body, or CRC — must surface codec.ErrCorrupt
// from Parse or Decode, never garbage data.
func TestEveryFlippedByteDetected(t *testing.T) {
	for _, f := range []Frame{
		BuildStyle(randomBytes(512, 3), StyleRaw),
		BuildStyle(bytes.Repeat([]byte("weights"), 200), StyleDeflate),
	} {
		wire := f.Marshal()
		for i := range wire {
			mut := bytes.Clone(wire)
			mut[i] ^= 0xff
			g, _, err := Parse(mut)
			if err == nil {
				_, err = g.Decode()
			}
			if err == nil {
				t.Fatalf("style %d: flipped byte %d went undetected", f.Style, i)
			}
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("style %d byte %d: error %v is not codec.ErrCorrupt", f.Style, i, err)
			}
		}
	}
}

func TestTruncatedFrameDetected(t *testing.T) {
	f := BuildStyle(randomBytes(256, 9), StyleRaw)
	wire := f.Marshal()
	for cut := 0; cut < len(wire); cut++ {
		if _, _, err := Parse(wire[:cut]); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("cut at %d: error %v is not codec.ErrCorrupt", cut, err)
		}
	}
}

func TestHashIsContentAddressed(t *testing.T) {
	a := randomBytes(1024, 1)
	if HashChunk(a) != HashChunk(bytes.Clone(a)) {
		t.Fatal("identical content hashed differently")
	}
	b := bytes.Clone(a)
	b[512] ^= 1
	if HashChunk(a) == HashChunk(b) {
		t.Fatal("distinct content collided")
	}
}

func TestEncodeChunksMatchesSerialBuild(t *testing.T) {
	// Parallel encode must be bit-identical to serial encode, regardless of
	// worker count.
	chunks := make([][]byte, 37)
	for i := range chunks {
		chunks[i] = randomBytes(1000+i*13, uint64(i)+1)
	}
	parallel := EncodeChunksStyle(chunks, StyleDeflate)
	old := Workers
	Workers = 1
	serial := EncodeChunksStyle(chunks, StyleDeflate)
	Workers = old
	for i := range chunks {
		if !bytes.Equal(parallel[i].Marshal(), serial[i].Marshal()) {
			t.Fatalf("chunk %d: parallel and serial encodings differ", i)
		}
	}
	got, err := DecodeAll(parallel)
	if err != nil {
		t.Fatal(err)
	}
	for i := range chunks {
		if !bytes.Equal(got[i], chunks[i]) {
			t.Fatalf("chunk %d: parallel decode mismatch", i)
		}
	}
}

func TestDecodeAllSurfacesCorruption(t *testing.T) {
	frames := EncodeChunksStyle([][]byte{randomBytes(300, 2), randomBytes(300, 3)}, StyleRaw)
	frames[1].Enc = bytes.Clone(frames[1].Enc)
	frames[1].Enc[10] ^= 0xff
	if _, err := DecodeAll(frames); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("error %v is not codec.ErrCorrupt", err)
	}
}

func TestDirectoryRoundTrip(t *testing.T) {
	d := &Directory{Sections: []SectionRef{
		{Name: "net", Chunks: []ChunkRef{
			{Hash: HashChunk([]byte("a")), RawLen: 100},
			{Hash: HashChunk([]byte("b")), RawLen: 42},
		}},
		{Name: "rng", Chunks: []ChunkRef{{Hash: HashChunk([]byte("c")), RawLen: 17}}},
		{Name: "empty"},
	}}
	got, err := DecodeDirectory(EncodeDirectory(d))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sections) != 3 {
		t.Fatalf("directory = %+v", got)
	}
	if got.Sections[0].Name != "net" || len(got.Sections[0].Chunks) != 2 {
		t.Fatalf("section 0 = %+v", got.Sections[0])
	}
	if got.Sections[0].Chunks[1] != d.Sections[0].Chunks[1] {
		t.Fatal("chunk ref mismatch")
	}
	if got.RawLen() != 159 {
		t.Fatalf("RawLen = %d, want 159", got.RawLen())
	}
}

// flagged returns an encoded directory with its flag byte set to v. Older
// builds set it to 1 on opaque checkpoints, which no reader accepts now.
func flagged(enc []byte, v byte) []byte {
	b := bytes.Clone(enc)
	b[1+len(dirMagic)] = v
	return b
}

// TestDirectoryFlagByteIsAlwaysZero pins the flag byte: every directory
// encodes it as 0, and a directory carrying any other value is corrupt.
func TestDirectoryFlagByteIsAlwaysZero(t *testing.T) {
	d := &Directory{Sections: []SectionRef{{Name: "", Chunks: []ChunkRef{{Hash: HashChunk(nil), RawLen: 5}}}}}
	enc := EncodeDirectory(d)
	if !bytes.Equal(enc, flagged(enc, 0)) {
		t.Fatalf("directory encodes flag byte %d, want 0", enc[1+len(dirMagic)])
	}
	for _, v := range []byte{1, 2} {
		if _, err := DecodeDirectory(flagged(enc, v)); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("flag byte %d: %v, want codec.ErrCorrupt", v, err)
		}
	}
}

func TestDirectoryRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, []byte("FLV1"), randomBytes(64, 11)} {
		if _, err := DecodeDirectory(b); err == nil {
			t.Fatalf("garbage directory %q decoded", b)
		}
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		for _, style := range []byte{StyleRaw, StyleDeflate, StyleLZ4} {
			fr := BuildStyle(raw, style)
			parsed, consumed, err := Parse(fr.Marshal())
			if err != nil || consumed != len(fr.Marshal()) {
				return false
			}
			if got, err := parsed.Decode(); err != nil || !bytes.Equal(got, raw) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelDoCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		hits := make([]int32, n)
		ParallelDo(n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

// frameStyles builds one frame per wire style from matching source data:
// incompressible for raw, repetitive for deflate and lz4.
func frameStyles() []Frame {
	return []Frame{
		BuildStyle(randomBytes(2048, 21), StyleRaw),
		BuildStyle(bytes.Repeat([]byte("layer.0.weight"), 150), StyleDeflate),
		BuildStyle(bytes.Repeat([]byte("layer.1.weight"), 150), StyleLZ4),
	}
}

func TestParseDecodeIntoAllStyles(t *testing.T) {
	for _, f := range frameStyles() {
		wire := f.Marshal()
		want, err := f.Decode()
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, f.RawLen)
		g, err := ParseDecodeInto(wire, dst)
		if err != nil {
			t.Fatalf("style %d: %v", f.Style, err)
		}
		if g.Hash != f.Hash || !bytes.Equal(dst, want) {
			t.Fatalf("style %d: ParseDecodeInto mismatch", f.Style)
		}
		for i := range wire {
			mut := bytes.Clone(wire)
			mut[i] ^= 0xff
			if _, err := ParseDecodeInto(mut, make([]byte, f.RawLen)); !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("style %d byte %d: flipped byte gave %v, not codec.ErrCorrupt", f.Style, i, err)
			}
		}
	}
}

// TestWireLenIsWhatAppendWrites: a pack append sizes its staging span from
// WireLen before serializing anything, so the two must agree for every
// style and across every varint-length boundary of the two length fields.
func TestWireLenIsWhatAppendWrites(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 129, 16383, 16384, 16385, DefaultChunkSize, 1<<21 - 1, 1 << 21} {
		for _, raw := range [][]byte{randomBytes(n, uint64(n)+1), make([]byte, n)} {
			for _, style := range []byte{StyleRaw, StyleDeflate, StyleLZ4} {
				f := BuildStyle(raw, style)
				if got := len(f.Marshal()); got != f.WireLen() {
					t.Fatalf("%d raw bytes, style %d: WireLen = %d, Marshal wrote %d", n, f.Style, f.WireLen(), got)
				}
				dst := make([]byte, 3, 3+f.WireLen())
				if out := f.Append(dst); len(out) != 3+f.WireLen() || &out[0] != &dst[0] {
					t.Fatalf("%d raw bytes, style %d: Append outgrew a span sized by WireLen", n, f.Style)
				}
			}
		}
	}
}

// TestBuildHashedDoesNotRehash: the store hashes a chunk once, to probe its
// dedup index, and frame building must take that hash as given — a frame
// built from a hash is the raw frame BuildStyle builds, its bytes are the
// chunk's own, and the hash it carries is the one it was handed, not a second
// pass over the bytes.
func TestBuildHashedDoesNotRehash(t *testing.T) {
	raw := bytes.Repeat([]byte("layer.0.weight"), 300) // compressible: raw by choice, not by fallback
	got := BuildHashed(raw, HashChunk(raw))
	if want := BuildStyle(raw, StyleRaw); !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatal("BuildHashed and BuildStyle(StyleRaw) disagree")
	}
	if got.Style != StyleRaw || &got.Enc[0] != &raw[0] {
		t.Fatalf("BuildHashed built style %d (aliasing the chunk: %v), want the raw frame over the chunk", got.Style, &got.Enc[0] == &raw[0])
	}
	marker := Hash{0xAB, 0xCD}
	if f := BuildHashed(raw, marker); f.Hash != marker {
		t.Fatalf("frame carries %s, not the hash it was handed", f.Hash)
	}
}

// TestDecodeDirectoryRejectsLengthsThatDoNotFit pins the directory decoder's
// length check: a chunk length of 2^63 or more (negative as an int), and
// lengths whose section or directory sum overflows, are codec.ErrCorrupt at
// decode time — no reader ever sizes a buffer or a layout by them.
func TestDecodeDirectoryRejectsLengthsThatDoNotFit(t *testing.T) {
	enc := func(lens ...[]uint64) []byte {
		w := codec.NewWriter()
		w.String(dirMagic)
		w.Bool(false)
		w.Uvarint(uint64(len(lens)))
		for i, sec := range lens {
			w.String(fmt.Sprint("s", i))
			w.Uvarint(uint64(len(sec)))
			for _, n := range sec {
				h := HashChunk([]byte{byte(n)})
				w.RawBytes(h[:])
				w.Uvarint(n)
			}
		}
		return w.Bytes()
	}
	const big = uint64(math.MaxInt)
	for name, b := range map[string][]byte{
		"negative chunk":      enc([]uint64{8}, []uint64{1 << 63}),
		"max uint64 chunk":    enc([]uint64{^uint64(0)}),
		"section sum":         enc([]uint64{big, 1}),
		"directory sum":       enc([]uint64{big / 2}, []uint64{big/2 + 2}),
		"section sum at wrap": enc([]uint64{big, big, 2}),
	} {
		if d, err := DecodeDirectory(b); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: decoded %+v, err %v; want codec.ErrCorrupt", name, d, err)
		}
	}
	d, err := DecodeDirectory(enc([]uint64{big / 2}, []uint64{big / 2}))
	if err != nil || d.RawLen() != int64(big/2)*2 {
		t.Fatalf("lengths that fit: %+v, %v", d, err)
	}
}

// TestDecodeLengthDisagreementIsCorrupt pins that a destination sized by a
// directory whose chunk length disagrees with the frame it resolves to — by
// a few bytes either way, in one piece or in several — is reported as
// codec.ErrCorrupt, for every frame style.
func TestDecodeLengthDisagreementIsCorrupt(t *testing.T) {
	raw := make([]byte, 100000)
	for i := range raw {
		raw[i] = byte(i * 7 / 5)
	}
	for _, style := range []byte{StyleRaw, StyleLZ4, StyleDeflate} {
		f := BuildStyle(raw, style)
		wire := f.Marshal()
		for _, delta := range []int{-8, 8} {
			n := len(raw) + delta
			if _, err := ParseDecodeInto(wire, make([]byte, n)); !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("style %d, %+d bytes: ParseDecodeInto: %v, want codec.ErrCorrupt", f.Style, delta, err)
			}
			buf := make([]byte, n)
			pieces := [][]byte{buf[:10], buf[10:10], buf[10 : n/2], buf[n/2:]}
			if _, err := ParseDecodeScatter(wire, pieces); !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("style %d, %+d bytes: ParseDecodeScatter: %v, want codec.ErrCorrupt", f.Style, delta, err)
			}
			if f.Style != StyleRaw {
				continue
			}
			if _, ok, err := DecodeGatheredRaw(wire[:len(wire)-f.RawLen-4], pieces, wire[len(wire)-4:]); ok || err != nil {
				t.Errorf("style %d, %+d bytes: DecodeGatheredRaw accepted the shape (ok=%v, %v)", f.Style, delta, ok, err)
			}
		}
	}
}

// TestParseDecodeScatterAllStyles pins the scatter decode: for every style,
// a frame decoded into pieces — empty ones included — leaves the pieces
// holding the frame's bytes in order, and any single flipped byte of the
// frame is codec.ErrCorrupt.
func TestParseDecodeScatterAllStyles(t *testing.T) {
	raw := make([]byte, 5000)
	for i := range raw {
		raw[i] = byte(i % 251 / 3)
	}
	for _, style := range []byte{StyleRaw, StyleLZ4, StyleDeflate} {
		f := BuildStyle(raw, style)
		if f.Style != style {
			t.Fatalf("style %d: built style %d", style, f.Style)
		}
		wire := f.Marshal()
		buf := make([]byte, len(raw))
		pieces := [][]byte{buf[:0], buf[:1], buf[1:4096], buf[4096:4096], buf[4096:]}
		g, err := ParseDecodeScatter(wire, pieces)
		if err != nil || g.Hash != f.Hash || !bytes.Equal(buf, raw) {
			t.Fatalf("style %d: ParseDecodeScatter: err %v, bytes equal %v", style, err, bytes.Equal(buf, raw))
		}
		for i := range wire {
			mut := bytes.Clone(wire)
			mut[i] ^= 0x10
			if _, err := ParseDecodeScatter(mut, pieces); !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("style %d: flipped byte %d: %v, want codec.ErrCorrupt", style, i, err)
			}
		}
	}
}
