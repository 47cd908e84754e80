// Package ckptfmt implements checkpoint payload format v2: a frame-based,
// parallel, content-addressed encoding of checkpoint state.
//
// Format v1 encodes a whole checkpoint as one blob produced and consumed on
// a single goroutine, so both materialization and restore run at
// single-core serialization speed — the dominant cost the paper's
// background-materialization machinery exists to hide (§5.1). Format v2
// removes the single-stream bottleneck instead of merely hiding it:
//
//   - A checkpoint payload is split into frames: one section per environment
//     entry, with large tensor payloads chunked further (codec.SplitChunks).
//   - Each frame is independently encodable and decodable. It carries its
//     own style byte (StyleRaw or StyleDeflate chosen by a size/entropy
//     heuristic, or the opt-in StyleLZ4 block style whose decode runs near
//     memcpy speed), its own CRC-32C over the encoded bytes, and a 128-bit
//     content hash of the raw bytes.
//   - Because frames are independent, encode and decode fan out across a
//     worker pool (ParallelDo); results are bit-identical regardless of how
//     work is distributed over goroutines.
//   - The content hash makes chunks addressable: the store keeps one copy of
//     each distinct chunk per run, so checkpoints that repeat state across
//     executions (frozen layers, datasets, configuration) store it once and
//     reference it by hash thereafter (cross-checkpoint dedup).
//
// The package defines the frame wire format and the segment directory that
// maps named sections to chunk references; internal/store owns where frame
// bytes live on disk (the chunk pack) and the run-level dedup index.
package ckptfmt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"

	"flor.dev/flor/internal/codec"
)

// Frame styles: how raw chunk bytes are encoded on disk.
const (
	// StyleRaw stores chunk bytes verbatim.
	StyleRaw byte = 0
	// StyleDeflate stores chunk bytes DEFLATE-compressed (BestSpeed).
	StyleDeflate byte = 1
	// StyleLZ4 stores chunk bytes as a hand-rolled LZ4 block (lz4.go):
	// match-copy decompression with no entropy stage, so decode runs near
	// memcpy speed on the restore hot path. Stores that write LZ4 frames
	// flag it in their FORMAT marker so older builds refuse cleanly.
	StyleLZ4 byte = 2

	// StyleAuto is not a wire style: passed to BuildStyle it selects the
	// raw/deflate size-and-entropy heuristic (the default Build behaviour).
	StyleAuto byte = 0xff
)

// Style-selection heuristic: chunks smaller than minDeflateSize never pay
// for a deflate stream's overhead, and chunks whose sampled byte entropy
// exceeds maxDeflateEntropy bits/byte (trained float tensors, already
// compressed data) are stored raw rather than burning CPU for ~0 gain.
const (
	minDeflateSize    = 128
	maxDeflateEntropy = 6.5
)

// Hash is a 128-bit content hash; chunks are deduplicated by it.
type Hash [16]byte

// String renders the hash in hex for logs and errors.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:]) }

// Word-wise hash constants: the xxh64 primes plus the murmur3 finalizer
// multipliers, combined into a two-lane absorb/finalize construction. The
// classic byte-at-a-time FNV runs well under serialization bandwidth, which
// would put hashing — not encoding — on the materialization critical path;
// absorbing 8 bytes per multiply keeps content addressing in the noise.
const (
	hashP1 = 0x9E3779B185EBCA87
	hashP2 = 0xC2B2AE3D27D4EB4F
	hashP3 = 0x165667B19E3779F9
	fmixM1 = 0xff51afd7ed558ccd
	fmixM2 = 0xc4ceb9fe1a85ec53
)

// fmix64 is the murmur3 64-bit finalizer: full avalanche over one word.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= fmixM1
	x ^= x >> 33
	x *= fmixM2
	x ^= x >> 33
	return x
}

func rotl64(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }

// HashChunk returns the 128-bit content hash of raw chunk bytes: two lanes
// absorb the input a word at a time and are cross-mixed through fmix64, so
// the hash runs at memory bandwidth while keeping enough avalanche for
// content addressing. (FNV-style simplicity, wide like the BLAKE family's
// digests; not cryptographic — dedup trusts the training process, not an
// adversary.)
func HashChunk(b []byte) Hash {
	n := uint64(len(b))
	h1 := hashP3 ^ n
	h2 := hashP1 + n*hashP2
	i := 0
	for ; i+16 <= len(b); i += 16 {
		w1 := binary.LittleEndian.Uint64(b[i:])
		w2 := binary.LittleEndian.Uint64(b[i+8:])
		h1 = rotl64(h1^(w1*hashP2), 27) * hashP1
		h2 = rotl64(h2^(w2*hashP1), 31) * hashP2
	}
	if i+8 <= len(b) {
		w := binary.LittleEndian.Uint64(b[i:])
		h1 = rotl64(h1^(w*hashP2), 27) * hashP1
		i += 8
	}
	if i < len(b) {
		var tail [8]byte
		copy(tail[:], b[i:])
		w := binary.LittleEndian.Uint64(tail[:]) | uint64(len(b)-i)<<56
		h2 = rotl64(h2^(w*hashP1), 31) * hashP2
	}
	a := fmix64(h1 ^ rotl64(h2, 17))
	c := fmix64(h2 ^ rotl64(h1, 43) ^ n*hashP3)
	var h Hash
	binary.LittleEndian.PutUint64(h[:8], a)
	binary.LittleEndian.PutUint64(h[8:], c)
	return h
}

// HashOfHashes derives a composite identity from an ordered hash list; a
// section's identity is the hash of its chunks' hashes, letting restore
// caches recognize repeated content before any chunk bytes are read.
func HashOfHashes(hs []Hash) Hash {
	buf := make([]byte, 0, 16*len(hs))
	for _, h := range hs {
		buf = append(buf, h[:]...)
	}
	return HashChunk(buf)
}

// Frame is one independently encoded chunk of checkpoint payload.
type Frame struct {
	Style  byte
	RawLen int    // decoded length
	Hash   Hash   // content hash of the raw bytes
	Enc    []byte // encoded bytes (verbatim or deflate, per Style)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Build encodes one raw chunk into a frame, choosing the style by the
// size/entropy heuristic and keeping the raw encoding whenever deflate fails
// to actually shrink the chunk.
func Build(raw []byte) Frame { return BuildStyle(raw, StyleAuto) }

// BuildStyle encodes one raw chunk with an explicit style preference,
// hashing it first; see BuildHashed, which it wraps, for the style rules.
func BuildStyle(raw []byte, style byte) Frame { return BuildHashed(raw, HashChunk(raw), style) }

// BuildHashed is BuildStyle for a caller that already holds the chunk's
// content hash — the store's put hashes every chunk to probe the dedup index
// and hands the hash of each fresh one here, so a chunk's bytes are hashed
// once. h must be HashChunk(raw); it is trusted, not recomputed.
//
// StyleAuto applies the raw/deflate heuristic; an explicit StyleDeflate or
// StyleLZ4 skips the entropy gate but still falls back to StyleRaw whenever
// the compressed encoding fails to shrink the chunk, so a style preference
// can never make a frame larger than the verbatim one. A raw-style frame's
// Enc aliases raw.
func BuildHashed(raw []byte, h Hash, style byte) Frame {
	f := Frame{Style: StyleRaw, RawLen: len(raw), Hash: h, Enc: raw}
	switch style {
	case StyleRaw:
		return f
	case StyleLZ4:
		if len(raw) < lz4MFLimit+1 {
			return f
		}
		enc := lz4Compress(raw, make([]byte, 0, lz4CompressBound(len(raw))))
		if len(enc) < len(raw) {
			f.Style = StyleLZ4
			f.Enc = enc
		}
		return f
	case StyleDeflate:
		return buildDeflate(f, raw)
	default: // StyleAuto
		if len(raw) < minDeflateSize || codec.SampleEntropy(raw) > maxDeflateEntropy {
			return f
		}
		return buildDeflate(f, raw)
	}
}

// buildDeflate attempts the deflate encoding, keeping raw on any failure or
// non-shrinking result.
func buildDeflate(f Frame, raw []byte) Frame {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return f
	}
	if _, err := zw.Write(raw); err != nil {
		return f
	}
	if err := zw.Close(); err != nil {
		return f
	}
	if buf.Len() < len(raw) {
		f.Style = StyleDeflate
		f.Enc = buf.Bytes()
	}
	return f
}

// EncodeChunks builds a frame per raw chunk, in parallel across the worker
// pool. Output order matches input order.
func EncodeChunks(chunks [][]byte) []Frame { return EncodeChunksStyle(chunks, StyleAuto) }

// EncodeChunksStyle is EncodeChunks with an explicit style preference.
func EncodeChunksStyle(chunks [][]byte, style byte) []Frame {
	frames := make([]Frame, len(chunks))
	ParallelDo(len(chunks), func(i int) {
		frames[i] = BuildStyle(chunks[i], style)
	})
	return frames
}

// Frame wire format:
//
//	style(1) | uvarint rawLen | uvarint encLen | hash(16) | enc | crc32c(4)
//
// The CRC covers every preceding byte of the frame, so a flip anywhere —
// header, hash, or body — is detected before decompression is attempted.

// appendHeader serializes a frame header — style, rawLen, encLen, hash — onto
// dst. The encoding is canonical (PutUvarint emits minimal varints), so a
// header is fully determined by those four values.
func appendHeader(dst []byte, style byte, rawLen, encLen int, h Hash) []byte {
	dst = append(dst, style)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(rawLen))
	dst = append(dst, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(encLen))
	dst = append(dst, tmp[:n]...)
	return append(dst, h[:]...)
}

// WireLen is the frame's serialized length, known before a byte is written:
// Append extends dst by exactly this much, so a run of frames can be staged
// in a span sized once.
func (f *Frame) WireLen() int {
	return 1 + uvarintLen(uint64(f.RawLen)) + uvarintLen(uint64(len(f.Enc))) + len(f.Hash) + len(f.Enc) + 4
}

// uvarintLen is the length of binary.PutUvarint's encoding of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Append serializes the frame onto dst and returns the extended slice.
func (f *Frame) Append(dst []byte) []byte {
	start := len(dst)
	dst = appendHeader(dst, f.Style, f.RawLen, len(f.Enc), f.Hash)
	dst = append(dst, f.Enc...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(dst[start:], castagnoli))
	return append(dst, crc[:]...)
}

// Marshal serializes the frame into a fresh buffer.
func (f *Frame) Marshal() []byte {
	return f.Append(make([]byte, 0, f.WireLen()))
}

// maxHeaderLen bounds a frame header: the style byte, two uvarints, and the
// 16-byte content hash. A prefix this long is always enough to parse the
// header of any well-formed frame.
const maxHeaderLen = 1 + 2*binary.MaxVarintLen64 + 16

// parseHeaderPrefix decodes the fixed leading fields of a frame — style,
// rawLen, encLen, content hash — from a prefix of the frame bytes. The
// prefix need not include the payload; the returned frame's Enc is nil.
// hdrLen is the header's byte length (Enc begins there).
func parseHeaderPrefix(b []byte) (f Frame, encLen, hdrLen int, err error) {
	if len(b) < 1 {
		return f, 0, 0, fmt.Errorf("%w: empty frame", codec.ErrCorrupt)
	}
	f.Style = b[0]
	off := 1
	rawLen, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return f, 0, 0, fmt.Errorf("%w: bad frame rawLen", codec.ErrCorrupt)
	}
	off += n
	el, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return f, 0, 0, fmt.Errorf("%w: bad frame encLen", codec.ErrCorrupt)
	}
	off += n
	if len(b)-off < 16 {
		return f, 0, 0, fmt.Errorf("%w: truncated frame header (need %d bytes, have %d)",
			codec.ErrCorrupt, off+16, len(b))
	}
	copy(f.Hash[:], b[off:])
	off += 16
	f.RawLen = int(rawLen)
	return f, int(el), off, nil
}

// parseHeader reads a frame's header from the front of b without verifying
// the CRC: hdrEnd is the offset where Enc begins, encEnd where it ends (the
// CRC trailer follows). The returned frame's Enc aliases b.
func parseHeader(b []byte) (f Frame, hdrEnd, encEnd int, err error) {
	f, encLen, hdrEnd, err := parseHeaderPrefix(b)
	if err != nil {
		return f, 0, 0, err
	}
	if len(b)-hdrEnd < encLen+4 {
		return f, 0, 0, fmt.Errorf("%w: truncated frame (need %d bytes, have %d)",
			codec.ErrCorrupt, hdrEnd+encLen+4, len(b))
	}
	f.Enc = b[hdrEnd : hdrEnd+encLen]
	return f, hdrEnd, hdrEnd + encLen, nil
}

// Parse reads one frame from the front of b, verifying its CRC, and returns
// the number of bytes consumed. The returned frame's Enc aliases b.
func Parse(b []byte) (Frame, int, error) {
	f, _, encEnd, err := parseHeader(b)
	if err != nil {
		return f, 0, err
	}
	want := binary.LittleEndian.Uint32(b[encEnd:])
	if got := crc32.Checksum(b[:encEnd], castagnoli); got != want {
		return f, 0, fmt.Errorf("%w: frame CRC mismatch (got %08x want %08x)", codec.ErrCorrupt, got, want)
	}
	return f, encEnd + 4, nil
}

// ParseDecodeInto parses the frame at the front of b, decodes it into dst
// (which must be exactly RawLen bytes), and verifies the frame CRC. For
// raw-style frames the copy into dst runs first and the checksum then reads
// the hot copy (plus the few header bytes), so the source is streamed
// exactly once instead of once for the CRC and again for the copy. Other styles fall back to Parse +
// DecodeIntoTrusted, whose decompression is already the second pass.
//
// Like DecodeIntoTrusted, the decoded bytes' content hash is not recomputed:
// callers must match the returned frame's Hash against an independently
// stored reference. On any error dst's contents are unspecified.
func ParseDecodeInto(b, dst []byte) (Frame, error) {
	f, hdrEnd, encEnd, err := parseHeader(b)
	if err != nil {
		return f, err
	}
	if f.Style != StyleRaw || len(f.Enc) != f.RawLen || len(dst) != f.RawLen {
		ff, _, err := Parse(b)
		if err != nil {
			return ff, err
		}
		if _, err := ff.DecodeIntoTrusted(dst); err != nil {
			return ff, err
		}
		return ff, nil
	}
	copy(dst, f.Enc)
	want := binary.LittleEndian.Uint32(b[encEnd:])
	got := crc32.Update(crc32.Update(0, castagnoli, b[:hdrEnd]), castagnoli, dst)
	if got != want {
		return f, fmt.Errorf("%w: frame CRC mismatch (got %08x want %08x)", codec.ErrCorrupt, got, want)
	}
	return f, nil
}

// DecodeGatheredRaw verifies a raw-style frame whose record was scatter-read
// in pieces by vectored IO: hdr holds the on-disk header bytes, dst the
// payload (already in its final buffer), tail the 4-byte CRC trailer.
// ok=false reports that the bytes are not the plain raw frame of dst's
// length the caller assumed when splitting the record — the caller must
// re-read through a general path for a verdict; an error means the shape
// matched but the checksum did not: the record is corrupt.
func DecodeGatheredRaw(hdr, dst, tail []byte) (Hash, bool, error) {
	f, encLen, hdrLen, err := parseHeaderPrefix(hdr)
	if err != nil || f.Style != StyleRaw || encLen != len(dst) || f.RawLen != len(dst) || hdrLen != len(hdr) {
		return Hash{}, false, nil
	}
	got := crc32.Update(crc32.Update(0, castagnoli, hdr), castagnoli, dst)
	if want := binary.LittleEndian.Uint32(tail); got != want {
		return Hash{}, false, fmt.Errorf("%w: frame CRC mismatch (got %08x want %08x)", codec.ErrCorrupt, got, want)
	}
	return f.Hash, true, nil
}

// Decode recovers the frame's raw chunk bytes, verifying length and content
// hash; any mismatch surfaces codec.ErrCorrupt. Raw-style frames return a
// slice aliasing Enc (zero copy).
func (f *Frame) Decode() ([]byte, error) { return f.DecodeInto(nil) }

// DecodeInto decodes into dst, which must be exactly RawLen bytes (or nil
// to let the frame choose: alias for raw style, fresh buffer for deflate and
// lz4). Assembling a multi-chunk section decodes every frame straight into
// its slice of one preallocated buffer, with no intermediate copies.
func (f *Frame) DecodeInto(dst []byte) ([]byte, error) {
	raw, err := f.decodeInto(dst)
	if err != nil {
		return nil, err
	}
	if HashChunk(raw) != f.Hash {
		return nil, fmt.Errorf("%w: frame content hash mismatch", codec.ErrCorrupt)
	}
	return raw, nil
}

// DecodeIntoTrusted is DecodeInto without the content-hash recompute over
// the decoded bytes. It is only for callers that have already (a) verified
// the frame's CRC via Parse — which covers the header, the stored hash, and
// every encoded byte — and (b) matched f.Hash against an independently
// stored reference (the segment directory's chunk ref). On that path the
// recompute adds no integrity, only a second full pass over the chunk; the
// public Decode/DecodeInto contract keeps the recompute for everyone else.
func (f *Frame) DecodeIntoTrusted(dst []byte) ([]byte, error) { return f.decodeInto(dst) }

func (f *Frame) decodeInto(dst []byte) ([]byte, error) {
	if dst != nil && len(dst) != f.RawLen {
		return nil, fmt.Errorf("ckptfmt: DecodeInto buffer is %d bytes, frame holds %d", len(dst), f.RawLen)
	}
	var raw []byte
	switch f.Style {
	case StyleRaw:
		if len(f.Enc) != f.RawLen {
			return nil, fmt.Errorf("%w: raw frame is %d bytes, header says %d", codec.ErrCorrupt, len(f.Enc), f.RawLen)
		}
		if dst == nil {
			raw = f.Enc
		} else {
			copy(dst, f.Enc)
			raw = dst
		}
	case StyleDeflate:
		zr := flate.NewReader(bytes.NewReader(f.Enc))
		if dst != nil {
			if _, err := io.ReadFull(zr, dst); err != nil {
				zr.Close()
				// io.EOF / io.ErrUnexpectedEOF here means the stream ended
				// before RawLen bytes: a truncated frame, never a short read
				// to return silently.
				return nil, fmt.Errorf("%w: frame inflate: %v", codec.ErrCorrupt, err)
			}
			// The stream must end exactly at RawLen: drain one byte and
			// require a clean EOF, so both trailing garbage and a stream
			// truncated mid-block (ErrUnexpectedEOF) surface as corruption.
			var one [1]byte
			if n, err := zr.Read(one[:]); n != 0 || (err != nil && err != io.EOF) {
				zr.Close()
				return nil, fmt.Errorf("%w: frame inflate does not end at %d bytes (n=%d err=%v)", codec.ErrCorrupt, f.RawLen, n, err)
			}
			zr.Close()
			raw = dst
		} else {
			var err error
			raw, err = io.ReadAll(zr)
			zr.Close()
			if err != nil {
				return nil, fmt.Errorf("%w: frame inflate: %v", codec.ErrCorrupt, err)
			}
			if len(raw) != f.RawLen {
				return nil, fmt.Errorf("%w: frame decoded to %d bytes, header says %d", codec.ErrCorrupt, len(raw), f.RawLen)
			}
		}
	case StyleLZ4:
		if dst == nil {
			dst = make([]byte, f.RawLen)
		}
		if err := lz4Decompress(f.Enc, dst); err != nil {
			return nil, err
		}
		raw = dst
	default:
		return nil, fmt.Errorf("%w: unknown frame style 0x%02x", codec.ErrCorrupt, f.Style)
	}
	return raw, nil
}

// DecodeAll decodes every frame in parallel across the worker pool,
// returning raw chunks in frame order, or the first error encountered.
func DecodeAll(frames []Frame) ([][]byte, error) {
	chunks := make([][]byte, len(frames))
	errs := make([]error, len(frames))
	ParallelDo(len(frames), func(i int) {
		chunks[i], errs[i] = frames[i].Decode()
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return chunks, nil
}

// ---------- segment directory ----------

// DefaultChunkSize is the chunking granularity for large sections: big
// enough to amortize per-frame overhead, small enough that a multi-MB model
// fans out across the whole worker pool.
const DefaultChunkSize = 256 << 10

// ChunkRef names one chunk of a section by content hash and raw length.
type ChunkRef struct {
	Hash   Hash
	RawLen int
}

// SectionRef describes one named section (environment entry) of a
// checkpoint as an ordered list of chunk references.
type SectionRef struct {
	Name   string
	Chunks []ChunkRef
}

// RawLen returns the section's total decoded length.
func (s *SectionRef) RawLen() int {
	n := 0
	for _, c := range s.Chunks {
		n += c.RawLen
	}
	return n
}

// Directory is the content of a format-v2 segment file: it maps a
// checkpoint's named sections to the content-addressed chunks holding their
// bytes. Opaque marks payloads stored through the blob API (no section
// structure) so reads can reassemble them verbatim.
type Directory struct {
	Opaque   bool
	Sections []SectionRef
}

// RawLen returns the total decoded payload length across all sections.
func (d *Directory) RawLen() int64 {
	var n int64
	for i := range d.Sections {
		n += int64(d.Sections[i].RawLen())
	}
	return n
}

// dirMagic heads every encoded directory, versioning the segment format.
const dirMagic = "FLV2"

// EncodeDirectory serializes a directory.
func EncodeDirectory(d *Directory) []byte {
	w := codec.NewWriter()
	w.String(dirMagic)
	w.Bool(d.Opaque)
	w.Uvarint(uint64(len(d.Sections)))
	for i := range d.Sections {
		s := &d.Sections[i]
		w.String(s.Name)
		w.Uvarint(uint64(len(s.Chunks)))
		for _, c := range s.Chunks {
			w.RawBytes(c.Hash[:])
			w.Uvarint(uint64(c.RawLen))
		}
	}
	return w.Bytes()
}

// DecodeDirectory parses an encoded directory.
func DecodeDirectory(b []byte) (*Directory, error) {
	r := codec.NewReader(b)
	magic, err := r.String()
	if err != nil {
		return nil, err
	}
	if magic != dirMagic {
		return nil, fmt.Errorf("%w: segment directory magic %q", codec.ErrCorrupt, magic)
	}
	d := &Directory{}
	if d.Opaque, err = r.Bool(); err != nil {
		return nil, err
	}
	ns, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if ns > uint64(r.Remaining()) {
		return nil, fmt.Errorf("%w: implausible section count %d", codec.ErrCorrupt, ns)
	}
	d.Sections = make([]SectionRef, 0, ns)
	for i := uint64(0); i < ns; i++ {
		var s SectionRef
		if s.Name, err = r.String(); err != nil {
			return nil, err
		}
		nc, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if nc > uint64(r.Remaining()) {
			return nil, fmt.Errorf("%w: implausible chunk count %d", codec.ErrCorrupt, nc)
		}
		s.Chunks = make([]ChunkRef, 0, nc)
		for j := uint64(0); j < nc; j++ {
			var c ChunkRef
			hb, err := r.RawBytes()
			if err != nil {
				return nil, err
			}
			if len(hb) != 16 {
				return nil, fmt.Errorf("%w: chunk hash length %d, want 16", codec.ErrCorrupt, len(hb))
			}
			copy(c.Hash[:], hb)
			rl, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			c.RawLen = int(rl)
			s.Chunks = append(s.Chunks, c)
		}
		d.Sections = append(d.Sections, s)
	}
	return d, nil
}
