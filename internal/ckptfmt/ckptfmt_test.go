package ckptfmt

import (
	"bytes"
	"errors"
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
	f := Build(raw)
	if f.Style != StyleRaw {
		t.Fatalf("high-entropy chunk got style %d, want raw", f.Style)
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
	f := Build(raw)
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

func TestTinyChunksStayRaw(t *testing.T) {
	f := Build([]byte("short"))
	if f.Style != StyleRaw {
		t.Fatalf("tiny chunk got style %d, want raw", f.Style)
	}
}

func TestZeroFilledTensorCompresses(t *testing.T) {
	// A freshly initialized tensor is all zero bytes — the best case for the
	// entropy heuristic.
	raw := make([]byte, 64<<10)
	f := Build(raw)
	if f.Style != StyleDeflate {
		t.Fatalf("zero chunk got style %d, want deflate", f.Style)
	}
	if len(f.Enc) > len(raw)/100 {
		t.Fatalf("zero chunk barely compressed: %d bytes", len(f.Enc))
	}
}

// TestEveryFlippedByteDetected is the corruption guarantee: a flip anywhere
// in a frame — header, hash, body, or CRC — must surface codec.ErrCorrupt
// from Parse or Decode, never garbage data.
func TestEveryFlippedByteDetected(t *testing.T) {
	for _, raw := range [][]byte{
		randomBytes(512, 3),                  // raw style
		bytes.Repeat([]byte("weights"), 200), // deflate style
	} {
		f := Build(raw)
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
	f := Build(randomBytes(256, 9))
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
	parallel := EncodeChunks(chunks)
	old := Workers
	Workers = 1
	serial := EncodeChunks(chunks)
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
	frames := EncodeChunks([][]byte{randomBytes(300, 2), randomBytes(300, 3)})
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
	if got.Opaque || len(got.Sections) != 3 {
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

	op := &Directory{Opaque: true, Sections: []SectionRef{{Name: "", Chunks: []ChunkRef{{Hash: HashChunk(nil), RawLen: 5}}}}}
	got2, err := DecodeDirectory(EncodeDirectory(op))
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Opaque {
		t.Fatal("opaque flag lost")
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
		fr := Build(raw)
		parsed, consumed, err := Parse(fr.Marshal())
		if err != nil || consumed != len(fr.Marshal()) {
			return false
		}
		got, err := parsed.Decode()
		return err == nil && bytes.Equal(got, raw)
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

func TestSampleEntropyBounds(t *testing.T) {
	if h := codec.SampleEntropy(randomBytes(64<<10, 5)); h < 7.5 {
		t.Fatalf("random data entropy %f, want near 8", h)
	}
	if h := codec.SampleEntropy(make([]byte, 1024)); h != 0 {
		t.Fatalf("zero data entropy %f, want 0", h)
	}
	if h := codec.SampleEntropy(nil); h != 0 {
		t.Fatalf("empty entropy %f", h)
	}
	uniform := make([]byte, 256)
	for i := range uniform {
		uniform[i] = byte(i)
	}
	if h := codec.SampleEntropy(uniform); math.Abs(h-8) > 1e-9 {
		t.Fatalf("uniform entropy %f, want exactly 8", h)
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
			for _, style := range []byte{StyleAuto, StyleRaw, StyleDeflate, StyleLZ4} {
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
// built from a hash is the frame BuildStyle builds, and the hash it carries is
// the one it was handed, not a second pass over the bytes.
func TestBuildHashedDoesNotRehash(t *testing.T) {
	raw := randomBytes(4096, 33)
	for _, style := range []byte{StyleAuto, StyleRaw, StyleDeflate, StyleLZ4} {
		want := BuildStyle(raw, style)
		got := BuildHashed(raw, HashChunk(raw), style)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("style %d: BuildHashed and BuildStyle disagree", style)
		}
		marker := Hash{0xAB, 0xCD}
		if f := BuildHashed(raw, marker, style); f.Hash != marker {
			t.Fatalf("style %d: frame carries %s, not the hash it was handed", style, f.Hash)
		}
	}
}
