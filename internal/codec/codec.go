// Package codec implements the self-describing binary encoding used for
// checkpoint payloads: primitive framing, tensor encoding, CRC-32C integrity
// frames.
//
// The encoding plays the role that cloudpickle serialization plays in the
// paper's Flor (§5.1): it is the dominant cost of materialization, so the
// background-materialization machinery is designed around moving calls to
// this package off the training thread.
package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"unsafe"

	"flor.dev/flor/internal/tensor"
)

// hostLittleEndian reports whether float64 slices already have the wire
// byte order in memory, enabling the memcpy fast paths below. The wire
// format is little-endian regardless; big-endian hosts take the per-element
// loop.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ErrCorrupt is returned when an integrity check fails during decoding.
var ErrCorrupt = errors.New("codec: corrupt data")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer appends an encoded byte stream to a byte slice: one it grows itself
// (NewWriter), or one the caller handed it (NewWriterInto) so that an encode
// into a recycled buffer of sufficient capacity allocates nothing.
//
// Over a handed buffer the Writer compares before it copies: the buffer still
// holds the stream encoded into it last time, and a write whose bytes are
// already there, at the same offset, only advances the length. Cleanliness is
// kept per granule — the unit the caller will hash the stream in — so the
// Writer can say afterwards exactly which granules it left untouched (Clean).
type Writer struct {
	buf []byte

	// Comparing state, set by NewWriterInto. old is the handed buffer at the
	// length of the stream it held; it shares buf's backing array, and is nil
	// once the stream has moved to a bigger one (nothing there to compare
	// with). dirty[j] is set by the first byte written into granule j that
	// differs from old's.
	old     []byte
	granule int
	dirty   []bool

	// layout is set by NewLayoutWriter: Tensor records its float block in
	// views instead of writing it.
	layout bool
	views  []View
}

// View is a float block a layout Writer recorded instead of writing it: B is
// the byte view of the tensor's own backing array, and At the stream length
// written before it, float blocks excluded.
type View struct {
	At int
	B  []byte
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// NewWriterInto returns a Writer that encodes into buf's backing array from
// its start, taking buf — at its full length — as the stream encoded there
// before and comparing against it in granules of granule bytes (see Clean).
// The stream outgrows the array only if its capacity is short, and then Bytes
// returns the grown replacement — the caller keeps that one in buf's place.
func NewWriterInto(buf []byte, granule int) *Writer {
	return &Writer{buf: buf[:0], old: buf, granule: granule, dirty: make([]bool, (len(buf)+granule-1)/granule)}
}

// NewLayoutWriter returns a Writer that lays a stream out instead of writing
// it whole: every encoder writes its bytes as usual, except Tensor, whose
// float block is recorded as a View of the tensor's backing array — the
// stream is Bytes with each view spliced in at its At. A read can then land
// in the tensor itself. tensors sizes the view list. ok is false on
// big-endian hosts, where no backing array holds its wire bytes.
func NewLayoutWriter(tensors int) (w *Writer, ok bool) {
	return &Writer{layout: true, views: make([]View, 0, tensors)}, hostLittleEndian
}

// Views returns the float blocks a layout Writer recorded, in stream order.
func (w *Writer) Views() []View { return w.views }

// Clean reports, for each granule of the stream written so far, whether it is
// byte for byte the granule the handed buffer held at that index before:
// every byte written into it compared equal, and it ends where the old one
// did. A stream that had to move to a bigger array has no clean granule; one
// longer or shorter than its predecessor has none from the granule the shorter
// of the two ends in (unless that end is a granule boundary). Call it when the
// stream is complete. A Writer from NewWriter compares nothing and reports nil.
func (w *Writer) Clean() []bool {
	if w.granule == 0 {
		return nil
	}
	clean := make([]bool, (len(w.buf)+w.granule-1)/w.granule)
	for j := range clean {
		// Ending where old's granule j ended implies old has a granule j —
		// and a stream that moved has an empty old.
		end := (j + 1) * w.granule
		clean[j] = min(end, len(w.buf)) == min(end, len(w.old)) && !w.dirty[j]
	}
	return clean
}

// write appends p: every encoder below funnels into it. A comparing Writer
// takes p one granule's share at a time; a share the buffer already holds is
// skipped, and the first that differs marks its granule, whose remaining
// shares are then copied without a look — so a rewritten tensor costs one
// early-exit compare per granule, and an unchanged one is read, not written.
func (w *Writer) write(p []byte) {
	if len(p) > cap(w.buf)-len(w.buf) {
		w.old = nil // append is about to move the stream
	}
	for w.old != nil && len(p) > 0 {
		off := len(w.buf)
		j := off / w.granule
		n := min(len(p), (j+1)*w.granule-off)
		if off+n > len(w.old) {
			break // past what the buffer held: granule j cannot end where it did
		}
		if !w.dirty[j] && bytes.Equal(w.old[off:off+n], p[:n]) {
			w.buf = w.buf[:off+n]
		} else {
			w.dirty[j] = true
			w.buf = append(w.buf, p[:n]...)
		}
		p = p[n:]
	}
	w.buf = append(w.buf, p...)
}

// Grow makes room for n more bytes, so the writes that follow extend the
// stream in place instead of doubling their way there.
func (w *Writer) Grow(n int) {
	if n > cap(w.buf)-len(w.buf) {
		w.old = nil
	}
	w.buf = slices.Grow(w.buf, n)
}

// Bytes returns the encoded stream.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the current encoded length.
func (w *Writer) Len() int { return len(w.buf) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	w.write(binary.AppendUvarint(tmp[:0], v))
}

// Int appends a signed integer as a zig-zag varint.
func (w *Writer) Int(v int) {
	var tmp [binary.MaxVarintLen64]byte
	w.write(binary.AppendVarint(tmp[:0], int64(v)))
}

// Int64 appends a signed 64-bit integer as a zig-zag varint: the bytes Int
// writes for the same value, on any build.
func (w *Writer) Int64(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	w.write(binary.AppendVarint(tmp[:0], v))
}

// Float64 appends an IEEE-754 little-endian float.
func (w *Writer) Float64(v float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	w.write(tmp[:])
}

// Bool appends a single byte 0/1.
func (w *Writer) Bool(v bool) {
	b := [1]byte{0}
	if v {
		b[0] = 1
	}
	w.write(b[:])
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.write(unsafe.Slice(unsafe.StringData(s), len(s))) // s's bytes, read in place

}

// RawBytes appends a length-prefixed byte slice.
func (w *Writer) RawBytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.write(b)
}

// RawAppend appends bytes verbatim, with no length prefix; used to splice
// pre-encoded payloads into a stream whose framing is managed by the caller.
func (w *Writer) RawAppend(b []byte) { w.write(b) }

// shape appends a tensor's rank and dimensions.
func (w *Writer) shape(shape []int) {
	w.Uvarint(uint64(len(shape)))
	for _, d := range shape {
		w.Uvarint(uint64(d))
	}
}

// Tensor appends a shape-prefixed dense tensor. It only reads t, for the
// duration of the call: encoding a live tensor is the one copy its checkpoint
// needs. A layout Writer reads nothing: it records t's memory, a pending
// initializer draw neither drawn nor dropped (tensor.Storage); the caller
// drops it when it issues the read that lands there.
func (w *Writer) Tensor(t *tensor.Tensor) {
	w.shape(t.Shape())
	var data []float64
	if w.layout {
		data = t.Storage()
	} else {
		data = t.Data()
	}
	if len(data) == 0 {
		return
	}
	// Bulk-encode the float payload in one contiguous write: serialization
	// is the record phase's hottest path (the paper's dominant
	// materialization cost), so on little-endian hosts the float block is
	// written straight from memory — IEEE-754 little-endian is both the
	// in-memory and the wire representation.
	if hostLittleEndian {
		b := unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), 8*len(data))
		if w.layout {
			w.views = append(w.views, View{At: len(w.buf), B: b})
			return
		}
		w.write(b)
		return
	}
	w.Grow(8 * len(data))
	for _, v := range data {
		w.Float64(v)
	}
}

// IntSlice appends a length-prefixed slice of signed ints.
func (w *Writer) IntSlice(s []int) {
	w.Uvarint(uint64(len(s)))
	for _, v := range s {
		w.Int(v)
	}
}

// Reader decodes a byte stream produced by Writer.
type Reader struct {
	buf []byte
	off int
}

// NewReader wraps an encoded stream.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Uvarint reads an unsigned varint. Only the shortest encoding of a value —
// the one Writer emits — is accepted, so whatever decodes re-encodes to the
// bytes it was read from.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 || (n > 1 && r.buf[r.off+n-1] == 0) {
		return 0, fmt.Errorf("%w: bad uvarint at offset %d", ErrCorrupt, r.off)
	}
	r.off += n
	return v, nil
}

// Int reads a zig-zag varint (shortest encoding only, like Uvarint). A value
// that does not fit an int (on a 32-bit build) is corrupt, not truncated.
func (r *Reader) Int() (int, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 || (n > 1 && r.buf[r.off+n-1] == 0) || int64(int(v)) != v {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrCorrupt, r.off)
	}
	r.off += n
	return int(v), nil
}

// Int64 reads a zig-zag varint (shortest encoding only, like Uvarint).
func (r *Reader) Int64() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 || (n > 1 && r.buf[r.off+n-1] == 0) {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrCorrupt, r.off)
	}
	r.off += n
	return v, nil
}

// Float64 reads an IEEE-754 float.
func (r *Reader) Float64() (float64, error) {
	if r.Remaining() < 8 {
		return 0, fmt.Errorf("%w: truncated float at offset %d", ErrCorrupt, r.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v, nil
}

// Bool reads a 0/1 byte.
func (r *Reader) Bool() (bool, error) {
	if r.Remaining() < 1 {
		return false, fmt.Errorf("%w: truncated bool at offset %d", ErrCorrupt, r.off)
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		return false, fmt.Errorf("%w: bool byte 0x%02x at offset %d", ErrCorrupt, b, r.off-1)
	}
	return b == 1, nil
}

// String reads a length-prefixed string.
func (r *Reader) String() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if uint64(r.Remaining()) < n {
		return "", fmt.Errorf("%w: truncated string at offset %d", ErrCorrupt, r.off)
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// RawBytes reads a length-prefixed byte slice (copied).
func (r *Reader) RawBytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(r.Remaining()) < n {
		return nil, fmt.Errorf("%w: truncated bytes at offset %d", ErrCorrupt, r.off)
	}
	b := make([]byte, n)
	copy(b, r.buf[r.off:r.off+int(n)])
	r.off += int(n)
	return b, nil
}

// Tensor reads a shape-prefixed dense tensor.
func (r *Reader) Tensor() (*tensor.Tensor, error) {
	d, err := r.Dense()
	if err != nil {
		return nil, err
	}
	return d.Tensor(), nil
}

// TensorView reads a shape-prefixed dense tensor without materializing it.
// The returned raw block aliases the reader's buffer and holds the wire
// encoding (8 little-endian IEEE-754 bytes per element); it stays valid only
// as long as the underlying buffer does. PutFloats copies such a block onto a
// float64 slice — together they form the zero-copy restore path, which
// defers (or skips) building an intermediate tensor and instead copies
// checkpoint bytes straight into the live destination.
//
// The element count is bounded by the bytes left in the stream before any
// dimension is trusted, so a shape whose product overflows (or whose
// dimensions do not fit an int) is ErrCorrupt, never a wrapped-around length.
func (r *Reader) TensorView() (shape []int, raw []byte, err error) {
	dims, err := r.Uvarint()
	if err != nil {
		return nil, nil, err
	}
	if dims > 8 {
		return nil, nil, fmt.Errorf("%w: implausible tensor rank %d", ErrCorrupt, dims)
	}
	shape = make([]int, dims)
	for i := range shape {
		d, err := r.Uvarint()
		if err != nil {
			return nil, nil, err
		}
		if d > math.MaxInt {
			return nil, nil, fmt.Errorf("%w: tensor dimension %d at offset %d does not fit an int", ErrCorrupt, d, r.off)
		}
		shape[i] = int(d)
	}
	// A zero dimension anywhere makes the tensor empty, however large the
	// others; otherwise every partial product stays within the bytes left.
	limit := uint64(r.Remaining()) / 8
	n := uint64(1)
	if !slices.Contains(shape, 0) {
		for _, d := range shape {
			if n > limit/uint64(d) {
				return nil, nil, fmt.Errorf("%w: tensor shape %v exceeds the %d bytes left at offset %d", ErrCorrupt, shape, r.Remaining(), r.off)
			}
			n *= uint64(d)
		}
	} else {
		n = 0
	}
	if uint64(r.Remaining())/8 < n {
		return nil, nil, fmt.Errorf("%w: truncated tensor payload at offset %d", ErrCorrupt, r.off)
	}
	raw = r.buf[r.off : r.off+8*int(n)]
	r.off += 8 * int(n)
	return shape, raw, nil
}

// Dense is a dense tensor as checkpoints carry it, in one of two forms.
// Snapshots build the materialized form (T set). Decoding builds the view
// form: the shape and the wire float block, aliasing the decoded buffer,
// unmaterialized. A view restores by copying checkpoint bytes straight into a
// live tensor's backing array (CopyInto) — the restore hot path never builds
// an intermediate tensor — and materializes a fresh copy on demand for any
// other consumer (Tensor). Neither form is ever mutated through Dense, so a
// value may be shared between goroutines for as long as the buffer a view
// aliases stays untouched.
type Dense struct {
	T *tensor.Tensor

	// View form, set only when T is nil: raw holds 8 little-endian IEEE-754
	// bytes per element, shape the dimensions.
	raw   []byte
	shape []int
}

// Dense reads a shape-prefixed dense tensor as a view over the reader's
// buffer (see TensorView).
func (r *Reader) Dense() (Dense, error) {
	shape, raw, err := r.TensorView()
	if err != nil {
		return Dense{}, err
	}
	return Dense{raw: raw, shape: shape}, nil
}

// Dense appends d in the encoding of Tensor; a view is re-emitted verbatim,
// byte-identical to encoding the tensor it would materialize to.
func (w *Writer) Dense(d Dense) {
	if d.T != nil {
		w.Tensor(d.T)
		return
	}
	w.shape(d.shape)
	w.write(d.raw)
}

// Shape returns the dimensions without materializing a view.
func (d Dense) Shape() []int {
	if d.T != nil {
		return d.T.Shape()
	}
	return d.shape
}

// Len returns the element count.
func (d Dense) Len() int {
	if d.T != nil {
		return d.T.Len()
	}
	return len(d.raw) / 8
}

// Tensor returns the materialized tensor, or a freshly allocated copy of a
// view: the view itself is never materialized in place, because decoded
// payloads are shared (a payload cache serves one to many restores).
func (d Dense) Tensor() *tensor.Tensor {
	if d.T != nil {
		return d.T
	}
	t := tensor.New(d.shape...)
	PutFloats(t.Data(), d.raw)
	return t
}

// CopyInto overwrites dst's elements with d's, dropping a pending
// initializer draw of dst's rather than drawing it; the shapes must match.
func (d Dense) CopyInto(dst *tensor.Tensor) error {
	if !slices.Equal(dst.Shape(), d.Shape()) {
		return fmt.Errorf("codec: tensor shape mismatch %v vs %v", dst.Shape(), d.Shape())
	}
	if d.T != nil {
		dst.CopyFrom(d.T)
	} else {
		PutFloats(dst.Overwrite(), d.raw)
	}
	return nil
}

// PutFloats copies a wire-format float block (8 little-endian bytes per
// element) onto dst, whose length must match the block's element count. On
// little-endian hosts this is a single memcpy into dst's backing array; the
// destination side of the unsafe conversion is always 8-byte aligned, so the
// block itself may sit at any offset (a frame decoded mid-buffer, an mmap'd
// pack page). Big-endian hosts take the per-element loop.
func PutFloats(dst []float64, raw []byte) {
	if len(raw) != 8*len(dst) {
		panic(fmt.Sprintf("codec: PutFloats length mismatch: %d raw bytes onto %d floats", len(raw), len(dst)))
	}
	if len(dst) == 0 {
		return
	}
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst)), raw)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
}

// IntSlice reads a length-prefixed int slice.
func (r *Reader) IntSlice() ([]int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("%w: implausible int slice length %d", ErrCorrupt, n)
	}
	out := make([]int, n)
	for i := range out {
		v, err := r.Int()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Frame wraps payload with a length prefix and a trailing CRC-32C so torn or
// corrupted writes are detected at read time.
func Frame(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+13)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(payload)))
	out = append(out, tmp[:n]...)
	out = append(out, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
	return append(out, crc[:]...)
}

// Unframe verifies and strips a Frame, returning the payload and the number
// of bytes consumed from b. Only the shortest encoding of the length — the
// one Frame writes — is accepted, so a frame that unframes re-frames to the
// bytes it was read from.
func Unframe(b []byte) (payload []byte, consumed int, err error) {
	length, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return nil, 0, fmt.Errorf("%w: bad frame length", ErrCorrupt)
	}
	if length > uint64(len(b)) || len(b)-int(length) < n+4 {
		return nil, 0, fmt.Errorf("%w: truncated frame (length %d, have %d bytes)", ErrCorrupt, length, len(b))
	}
	total := n + int(length) + 4
	payload = b[n : n+int(length)]
	want := binary.LittleEndian.Uint32(b[n+int(length):])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, 0, fmt.Errorf("%w: frame CRC mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return payload, total, nil
}

// SplitChunks cuts b into consecutive chunks of at most chunkSize bytes.
// The returned slices alias b. A nil or empty input yields no chunks; format
// v2 uses this to cut large tensor payloads into independently encodable
// frames.
func SplitChunks(b []byte, chunkSize int) [][]byte {
	if chunkSize <= 0 || len(b) == 0 {
		if len(b) == 0 {
			return nil
		}
		return [][]byte{b}
	}
	out := make([][]byte, 0, (len(b)+chunkSize-1)/chunkSize)
	for len(b) > chunkSize {
		out = append(out, b[:chunkSize])
		b = b[chunkSize:]
	}
	return append(out, b)
}
