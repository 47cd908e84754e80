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
//     own style byte, its own CRC-32C over the encoded bytes, and a 128-bit
//     content hash of the raw bytes. Stores write StyleRaw only; StyleDeflate
//     and StyleLZ4 frames, which older builds wrote, are read-compat: every
//     decoder accepts them, and BuildStyle still encodes them for tests and
//     codec measurements.
//   - Because frames are independent, chunk hashing and frame decode fan out
//     across a worker pool (ParallelDo); results are bit-identical regardless of how
//     work is distributed over goroutines.
//   - The content hash makes chunks addressable: the store keeps one copy of
//     each distinct chunk per run, so checkpoints that repeat state across
//     executions (frozen layers, datasets, configuration) store it once and
//     reference it by hash thereafter (cross-checkpoint dedup).
//
// The package defines the frame wire format and the checkpoint directory
// that maps named sections to chunk references; internal/store owns where frame
// bytes live on disk (the chunk pack) and the run-level dedup index.
package ckptfmt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"flor.dev/flor/internal/codec"
)

// Frame styles: how raw chunk bytes are encoded on disk.
const (
	// StyleRaw stores chunk bytes verbatim: the only style stores write.
	StyleRaw byte = 0
	// StyleDeflate stores chunk bytes DEFLATE-compressed (BestSpeed).
	// Read-compat.
	StyleDeflate byte = 1
	// StyleLZ4 stores chunk bytes as a hand-rolled LZ4 block (lz4.go).
	// Read-compat: stores holding LZ4 frames carry an "lz4" token in their
	// FORMAT marker, so builds that predate the style refuse them cleanly.
	StyleLZ4 byte = 2
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
	Enc    []byte // encoded bytes: verbatim, deflate or LZ4, per Style
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BuildHashed is the frame a store writes: the raw frame over a chunk whose
// content hash the caller already holds — the store's put hashes every chunk
// to probe the dedup index and hands the hash of each fresh one here, so a
// chunk's bytes are hashed once. h must be HashChunk(raw); it is trusted, not
// recomputed. The frame's Enc aliases raw.
func BuildHashed(raw []byte, h Hash) Frame {
	return Frame{Style: StyleRaw, RawLen: len(raw), Hash: h, Enc: raw}
}

// BuildStyle encodes one raw chunk in an explicit style, hashing it first.
// Stores write only raw frames; the deflate and LZ4 encoders exist to
// produce the read-compat frames older builds wrote, for tests and codec
// measurements. A compressing style falls back to StyleRaw whenever its
// encoding fails to shrink the chunk, so a frame is never larger than the
// verbatim one.
func BuildStyle(raw []byte, style byte) Frame {
	f := BuildHashed(raw, HashChunk(raw))
	switch style {
	case StyleLZ4:
		if len(raw) < lz4MFLimit+1 {
			return f
		}
		enc := lz4Compress(raw, make([]byte, 0, lz4CompressBound(len(raw))))
		if len(enc) < len(raw) {
			f.Style = StyleLZ4
			f.Enc = enc
		}
	case StyleDeflate:
		// NewWriter fails only on a bad level, and the writer only when its
		// destination does, which a bytes.Buffer never does.
		var buf bytes.Buffer
		zw, _ := flate.NewWriter(&buf, flate.BestSpeed)
		zw.Write(raw)
		zw.Close()
		if buf.Len() < len(raw) {
			f.Style = StyleDeflate
			f.Enc = buf.Bytes()
		}
	}
	return f
}

// EncodeChunksStyle builds a frame per raw chunk in an explicit style, in
// parallel across the worker pool. Output order matches input order.
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

// RawWireLen is the WireLen of a raw frame of rawLen bytes.
func RawWireLen(rawLen int) int {
	return 1 + 2*uvarintLen(uint64(rawLen)) + len(Hash{}) + rawLen + 4
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

// MaxHeaderLen bounds a frame header: the style byte, two uvarints, and the
// 16-byte content hash. A prefix this long is always enough to parse the
// header of any well-formed frame.
const MaxHeaderLen = 1 + 2*binary.MaxVarintLen64 + 16

// parseHeaderPrefix decodes the fixed leading fields of a frame — style,
// rawLen, encLen, content hash — from a prefix of the frame bytes. The
// prefix need not include the payload; the returned frame's Enc is nil.
// hdrLen is the header's byte length (Enc begins there).
//
// A b that ends inside the header fails with an error that is
// io.ErrUnexpectedEOF as well as codec.ErrCorrupt; a length no frame can
// have fails with codec.ErrCorrupt alone.
func parseHeaderPrefix(b []byte) (f Frame, encLen, hdrLen int, err error) {
	if len(b) < 1 {
		return f, 0, 0, fmt.Errorf("%w: empty frame: %w", codec.ErrCorrupt, io.ErrUnexpectedEOF)
	}
	f.Style = b[0]
	off := 1
	var lens [2]uint64
	for i, name := range [2]string{"rawLen", "encLen"} {
		v, n := binary.Uvarint(b[off:])
		switch {
		case n == 0:
			return f, 0, 0, fmt.Errorf("%w: truncated frame %s: %w", codec.ErrCorrupt, name, io.ErrUnexpectedEOF)
		case n < 0 || v > math.MaxInt32:
			return f, 0, 0, fmt.Errorf("%w: bad frame %s", codec.ErrCorrupt, name)
		}
		lens[i], off = v, off+n
	}
	rawLen, el := lens[0], lens[1]
	if len(b)-off < 16 {
		return f, 0, 0, fmt.Errorf("%w: truncated frame header (need %d bytes, have %d): %w",
			codec.ErrCorrupt, off+16, len(b), io.ErrUnexpectedEOF)
	}
	copy(f.Hash[:], b[off:])
	off += 16
	f.RawLen = int(rawLen)
	return f, int(el), off, nil
}

// ParseHeader decodes the header at the front of b, which need not hold the
// rest of the frame (the returned frame's Enc is nil), and returns the
// frame's wire length: header, payload and CRC trailer. Its errors are
// parseHeaderPrefix's, so a header b cuts short is io.ErrUnexpectedEOF.
func ParseHeader(b []byte) (f Frame, wireLen int, err error) {
	f, encLen, hdrLen, err := parseHeaderPrefix(b)
	if err != nil {
		return f, 0, err
	}
	return f, hdrLen + encLen + 4, nil
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
// (which must be exactly RawLen bytes), and verifies the frame CRC: it is
// ParseDecodeScatter with dst in one piece.
func ParseDecodeInto(b, dst []byte) (Frame, error) { return ParseDecodeScatter(b, [][]byte{dst}) }

// ParseDecodeScatter parses the frame at the front of b, decodes it into
// dst, whose pieces, in order, tile the frame's RawLen bytes (one section
// buffer's slice, or a section laid over live tensors, see value.Layout),
// and verifies the frame CRC. A raw frame is copied piece by piece and the
// checksum then reads the hot copies (plus the few header bytes), so the
// source is streamed exactly once instead of once for the CRC and again for
// the copy. Other styles are Parse + DecodeIntoTrusted, whose decompression
// is already the second pass: straight into a destination in one piece, or
// into arena scratch that is then scattered.
//
// Like DecodeIntoTrusted, the decoded bytes' content hash is not
// recomputed: callers must match the returned frame's Hash against an
// independently stored reference. A destination whose length is not the
// frame's is codec.ErrCorrupt. On any error dst's contents are unspecified.
func ParseDecodeScatter(b []byte, dst [][]byte) (Frame, error) {
	f, hdrEnd, encEnd, err := parseHeader(b)
	if err != nil {
		return f, err
	}
	n := piecesLen(dst)
	if f.Style == StyleRaw && len(f.Enc) == f.RawLen && n == f.RawLen {
		scatter(dst, f.Enc)
		if got, want := crcOf(b[:hdrEnd], dst), binary.LittleEndian.Uint32(b[encEnd:]); got != want {
			return f, fmt.Errorf("%w: frame CRC mismatch (got %08x want %08x)", codec.ErrCorrupt, got, want)
		}
		return f, nil
	}
	ff, _, err := Parse(b)
	if err != nil {
		return ff, err
	}
	if n != ff.RawLen { // the directory that sized dst disagrees with its frame
		return ff, fmt.Errorf("%w: destination is %d bytes, frame holds %d", codec.ErrCorrupt, n, ff.RawLen)
	}
	if len(dst) == 1 {
		_, err := ff.DecodeIntoTrusted(dst[0])
		return ff, err
	}
	tmp := Shared.Get(n)
	defer Shared.Put(tmp)
	if _, err := ff.DecodeIntoTrusted(tmp); err != nil {
		return ff, err
	}
	scatter(dst, tmp)
	return ff, nil
}

// piecesLen is the total length of a piece list.
func piecesLen(ps [][]byte) int {
	n := 0
	for _, p := range ps {
		n += len(p)
	}
	return n
}

// crcOf is the frame CRC of a header followed by payload pieces.
func crcOf(hdr []byte, pieces [][]byte) uint32 {
	crc := crc32.Update(0, castagnoli, hdr)
	for _, p := range pieces {
		crc = crc32.Update(crc, castagnoli, p)
	}
	return crc
}

// scatter copies src across dst's pieces in order; the lengths must agree.
func scatter(dst [][]byte, src []byte) {
	for _, p := range dst {
		src = src[copy(p, src):]
	}
}

// DecodeGatheredRaw verifies a raw-style frame whose record was scatter-read
// in pieces by vectored IO: hdr holds the on-disk header bytes, dst the
// payload (already in its final pieces, in order), tail the 4-byte CRC
// trailer.
// ok=false reports that the bytes are not the plain raw frame of dst's
// length the caller assumed when splitting the record — the caller must
// re-read through a general path for a verdict; an error means the shape
// matched but the checksum did not: the record is corrupt.
func DecodeGatheredRaw(hdr []byte, dst [][]byte, tail []byte) (Hash, bool, error) {
	f, encLen, hdrLen, err := parseHeaderPrefix(hdr)
	n := piecesLen(dst)
	if err != nil || f.Style != StyleRaw || encLen != n || f.RawLen != n || hdrLen != len(hdr) {
		return Hash{}, false, nil
	}
	if got, want := crcOf(hdr, dst), binary.LittleEndian.Uint32(tail); got != want {
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

// ---------- checkpoint directory ----------

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

// Directory is a checkpoint's index entry, carried by its manifest meta
// record (older stores wrote it to a segment file; a format-v1 store's is
// built at open): it maps the checkpoint's named sections to the
// content-addressed chunks holding their bytes.
type Directory struct {
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

// dirMagic heads every encoded directory, versioning its format.
const dirMagic = "FLV2"

// EncodeDirectory serializes a directory.
func EncodeDirectory(d *Directory) []byte {
	w := codec.NewWriter()
	w.String(dirMagic)
	w.Bool(false) // the opaque flag of older builds: a 1 no reader accepts
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
		return nil, fmt.Errorf("%w: checkpoint directory magic %q", codec.ErrCorrupt, magic)
	}
	if opaque, err := r.Bool(); err != nil {
		return nil, err
	} else if opaque {
		return nil, fmt.Errorf("%w: opaque checkpoint directory (flag byte 1)", codec.ErrCorrupt)
	}
	d := &Directory{}
	ns, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if ns > uint64(r.Remaining()) {
		return nil, fmt.Errorf("%w: implausible section count %d", codec.ErrCorrupt, ns)
	}
	d.Sections = make([]SectionRef, 0, ns)
	total := 0
	for i := uint64(0); i < ns; i++ {
		var s SectionRef
		secLen := 0
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
			// Readers size buffers and lay sections over live memory by
			// these lengths: a section, and the whole directory, must add
			// up to a length that fits an int.
			if rl > math.MaxInt-uint64(secLen) || rl > math.MaxInt-uint64(total) {
				return nil, fmt.Errorf("%w: section %q chunk length %d overflows", codec.ErrCorrupt, s.Name, rl)
			}
			c.RawLen = int(rl)
			secLen += c.RawLen
			total += c.RawLen
			s.Chunks = append(s.Chunks, c)
		}
		d.Sections = append(d.Sections, s)
	}
	return d, nil
}
