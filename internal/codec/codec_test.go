package codec

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Uvarint(0)
	w.Uvarint(1 << 40)
	w.Int(-12345)
	w.Int(0)
	w.Float64(math.Pi)
	w.Float64(math.Inf(-1))
	w.Bool(true)
	w.Bool(false)
	w.String("hello, flor")
	w.String("")
	w.RawBytes([]byte{1, 2, 3})
	w.IntSlice([]int{-1, 0, 7})

	r := NewReader(w.Bytes())
	if v, _ := r.Uvarint(); v != 0 {
		t.Fatalf("uvarint = %d", v)
	}
	if v, _ := r.Uvarint(); v != 1<<40 {
		t.Fatalf("uvarint = %d", v)
	}
	if v, _ := r.Int(); v != -12345 {
		t.Fatalf("int = %d", v)
	}
	if v, _ := r.Int(); v != 0 {
		t.Fatalf("int = %d", v)
	}
	if v, _ := r.Float64(); v != math.Pi {
		t.Fatalf("float = %g", v)
	}
	if v, _ := r.Float64(); !math.IsInf(v, -1) {
		t.Fatalf("float = %g", v)
	}
	if v, _ := r.Bool(); !v {
		t.Fatal("bool = false")
	}
	if v, _ := r.Bool(); v {
		t.Fatal("bool = true")
	}
	if v, _ := r.String(); v != "hello, flor" {
		t.Fatalf("string = %q", v)
	}
	if v, _ := r.String(); v != "" {
		t.Fatalf("string = %q", v)
	}
	if v, _ := r.RawBytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", v)
	}
	s, _ := r.IntSlice()
	if len(s) != 3 || s[0] != -1 || s[2] != 7 {
		t.Fatalf("int slice = %v", s)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

func TestTensorRoundTrip(t *testing.T) {
	orig := tensor.Randn(xrand.New(1), 1, 3, 4, 5)
	w := NewWriter()
	w.Tensor(orig)
	got, err := NewReader(w.Bytes()).Tensor()
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(orig, got) {
		t.Fatal("tensor round trip not identical")
	}
}

func TestScalarTensorRoundTrip(t *testing.T) {
	orig := tensor.Scalar(42.5)
	w := NewWriter()
	w.Tensor(orig)
	got, err := NewReader(w.Bytes()).Tensor()
	if err != nil {
		t.Fatal(err)
	}
	if got.Item() != 42.5 {
		t.Fatalf("scalar round trip = %g", got.Item())
	}
}

func TestTruncatedReadsFail(t *testing.T) {
	w := NewWriter()
	w.Tensor(tensor.Full(1, 10, 10))
	full := w.Bytes()
	for _, cut := range []int{0, 1, 5, len(full) / 2, len(full) - 1} {
		if _, err := NewReader(full[:cut]).Tensor(); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestReaderErrorsOnEmpty(t *testing.T) {
	r := NewReader(nil)
	if _, err := r.Float64(); err == nil {
		t.Fatal("empty float read succeeded")
	}
	if _, err := r.Bool(); err == nil {
		t.Fatal("empty bool read succeeded")
	}
	if _, err := r.String(); err == nil {
		t.Fatal("empty string read succeeded")
	}
}

func TestBoolRejectsJunk(t *testing.T) {
	if _, err := NewReader([]byte{7}).Bool(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("junk bool error = %v, want ErrCorrupt", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("checkpoint payload")
	framed := Frame(payload)
	got, consumed, err := Unframe(framed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}
	if consumed != len(framed) {
		t.Fatalf("consumed %d of %d", consumed, len(framed))
	}
}

func TestFrameDetectsCorruption(t *testing.T) {
	framed := Frame([]byte("checkpoint payload"))
	for i := 1; i < len(framed); i += 3 {
		bad := append([]byte(nil), framed...)
		bad[i] ^= 0xff
		if _, _, err := Unframe(bad); err == nil {
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
}

// TestFrameDetectsTruncation also pins the length prefix's edge cases: a
// length past the end of the input (up to 2^64-1, which must not wrap the
// bounds check into a slice panic) and a length in a longer encoding than
// Frame writes, which would not re-frame to the bytes it was read from.
func TestFrameDetectsTruncation(t *testing.T) {
	framed := Frame([]byte("checkpoint payload"))
	overlong := append([]byte{framed[0] | 0x80, 0x00}, framed[1:]...)
	for _, bad := range [][]byte{
		framed[:len(framed)-2],
		append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, framed...),
		append([]byte{0xfb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, framed...),
		overlong,
	} {
		if _, _, err := Unframe(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("frame %x: error = %v, want ErrCorrupt", bad[:min(len(bad), 12)], err)
		}
	}
}

func TestFramesConcatenate(t *testing.T) {
	stream := append(Frame([]byte("one")), Frame([]byte("two"))...)
	p1, n1, err := Unframe(stream)
	if err != nil || string(p1) != "one" {
		t.Fatalf("first frame: %q, %v", p1, err)
	}
	p2, _, err := Unframe(stream[n1:])
	if err != nil || string(p2) != "two" {
		t.Fatalf("second frame: %q, %v", p2, err)
	}
}

func TestQuickIntRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		w := NewWriter()
		w.Int(int(v))
		got, err := NewReader(w.Bytes()).Int()
		return err == nil && got == int(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		w := NewWriter()
		w.String(s)
		got, err := NewReader(w.Bytes()).String()
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		got, _, err := Unframe(Frame(payload))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTensorRoundTrip(t *testing.T) {
	f := func(seed uint64, rows, cols uint8) bool {
		r := int(rows%8) + 1
		c := int(cols%8) + 1
		orig := tensor.Randn(xrand.New(seed), 1, r, c)
		w := NewWriter()
		w.Tensor(orig)
		got, err := NewReader(w.Bytes()).Tensor()
		return err == nil && tensor.Equal(orig, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitChunks(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	chunks := SplitChunks(data, 256)
	if len(chunks) != 4 {
		t.Fatalf("chunk count = %d, want 4", len(chunks))
	}
	var reassembled []byte
	for i, c := range chunks {
		if i < 3 && len(c) != 256 {
			t.Fatalf("chunk %d length %d, want 256", i, len(c))
		}
		reassembled = append(reassembled, c...)
	}
	if !bytes.Equal(reassembled, data) {
		t.Fatal("chunks do not reassemble to the input")
	}
	if got := SplitChunks(nil, 256); got != nil {
		t.Fatalf("SplitChunks(nil) = %v", got)
	}
	if got := SplitChunks(data[:10], 256); len(got) != 1 || len(got[0]) != 10 {
		t.Fatalf("short input chunks = %v", got)
	}
	if got := SplitChunks(data, 0); len(got) != 1 {
		t.Fatalf("non-positive chunk size: %d chunks, want 1 undivided", len(got))
	}
}

func TestQuickSplitChunksReassemble(t *testing.T) {
	f := func(data []byte, size uint16) bool {
		chunks := SplitChunks(data, int(size%1024)+1)
		var re []byte
		for _, c := range chunks {
			re = append(re, c...)
		}
		return bytes.Equal(re, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTensorViewAliasesAndPutFloats(t *testing.T) {
	orig := tensor.Randn(xrand.New(3), 1, 64, 3)
	w := NewWriter()
	w.Tensor(orig)
	shape, raw, err := NewReader(w.Bytes()).TensorView()
	if err != nil {
		t.Fatal(err)
	}
	if len(shape) != 2 || shape[0] != 64 || shape[1] != 3 {
		t.Fatalf("shape = %v", shape)
	}
	if len(raw) != 8*orig.Len() {
		t.Fatalf("raw block %d bytes, want %d", len(raw), 8*orig.Len())
	}
	dst := make([]float64, orig.Len())
	PutFloats(dst, raw)
	for i, v := range orig.Data() {
		if dst[i] != v {
			t.Fatalf("element %d: %g != %g", i, dst[i], v)
		}
	}
	// The view must reject truncated payloads like Tensor does.
	if _, _, err := NewReader(w.Bytes()[:w.Len()-4]).TensorView(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated view: err = %v", err)
	}
}

// TestTensorViewRejectsOverflowingShape pins that a shape whose element
// count wraps around (or does not fit an int) is corruption: [1<<62, 4]
// multiplies to 0 in 64 bits and used to decode as an empty block.
func TestTensorViewRejectsOverflowingShape(t *testing.T) {
	for _, dims := range [][]uint64{
		{1 << 62, 4},         // product wraps to 0
		{1 << 61, 3},         // product wraps negative as an int
		{1 << 63},            // dimension does not fit an int
		{3, 1 << 62, 1 << 2}, // wraps mid-way
		{1 << 40},            // fits, but far beyond the bytes present
	} {
		w := NewWriter()
		w.Uvarint(uint64(len(dims)))
		for _, d := range dims {
			w.Uvarint(d)
		}
		w.RawAppend(make([]byte, 64))
		if _, _, err := NewReader(w.Bytes()).TensorView(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("dims %v: TensorView err = %v, want ErrCorrupt", dims, err)
		}
		if _, err := NewReader(w.Bytes()).Tensor(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("dims %v: Tensor err = %v, want ErrCorrupt", dims, err)
		}
	}
	// An empty tensor is still a tensor, wherever its zero dimension is and
	// however few bytes follow it.
	for _, shape := range [][]int{{0, 5}, {21, 0}, {7, 0, 9}, {1 << 30, 0}} {
		w := NewWriter()
		w.Tensor(tensor.New(shape...))
		if got, raw, err := NewReader(w.Bytes()).TensorView(); err != nil || len(raw) != 0 || !slices.Equal(got, shape) {
			t.Fatalf("empty tensor %v: shape=%v raw=%d err=%v", shape, got, len(raw), err)
		}
	}
}

// TestDenseFormsEquivalent pins that the view a Reader decodes and the
// materialized tensor it came from are interchangeable: same encoding, same
// shape and length, CopyInto and Tensor yield the same elements, and the view
// is never materialized in place.
func TestDenseFormsEquivalent(t *testing.T) {
	orig := tensor.Randn(xrand.New(5), 1, 7, 3)
	w := NewWriter()
	w.Dense(Dense{T: orig})
	view, err := NewReader(w.Bytes()).Dense()
	if err != nil {
		t.Fatal(err)
	}
	if view.T != nil || view.Len() != orig.Len() || !slices.Equal(view.Shape(), orig.Shape()) {
		t.Fatalf("view = %+v", view)
	}
	w2 := NewWriter()
	w2.Dense(view)
	if !bytes.Equal(w.Bytes(), w2.Bytes()) {
		t.Fatal("view re-encodes differently from the tensor it was decoded from")
	}
	a, b := view.Tensor(), view.Tensor()
	if !tensor.Equal(a, orig) || a == b || view.T != nil {
		t.Fatal("view materializes wrongly, or in place")
	}
	dst := tensor.New(7, 3)
	if err := view.CopyInto(dst); err != nil || !tensor.Equal(dst, orig) {
		t.Fatalf("CopyInto: err=%v", err)
	}
	if err := view.CopyInto(tensor.New(3, 7)); err == nil {
		t.Fatal("CopyInto accepted a different shape")
	}
	if err := (Dense{T: orig}).CopyInto(tensor.New(21)); err == nil {
		t.Fatal("CopyInto accepted a different shape (materialized)")
	}
}

// TestReaderRejectsPaddedVarints pins that only the shortest varint encoding
// decodes, so decode-then-encode is the identity on accepted input.
func TestReaderRejectsPaddedVarints(t *testing.T) {
	if _, err := NewReader([]byte{0x80, 0x00}).Uvarint(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("padded uvarint: err = %v", err)
	}
	if _, err := NewReader([]byte{0x82, 0x00}).Int(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("padded varint: err = %v", err)
	}
	if v, err := NewReader([]byte{0x00}).Uvarint(); err != nil || v != 0 {
		t.Fatalf("zero: v=%d err=%v", v, err)
	}
}

// TestInt64RoundTripsAndIntRefusesOverflow pins the two signed readers: Int64
// reads back every int64 in the bytes Int writes for the same value, and Int
// reads a value beyond int's range (reachable on 32-bit builds) as corrupt,
// never truncated.
func TestInt64RoundTripsAndIntRefusesOverflow(t *testing.T) {
	for _, v := range []int64{0, -1, math.MaxInt32, math.MaxInt32 + 1, math.MinInt32 - 1, math.MinInt64, math.MaxInt64} {
		w := NewWriter()
		w.Int64(v)
		if got, err := NewReader(w.Bytes()).Int64(); err != nil || got != v {
			t.Fatalf("Int64 %d read back as %d, %v", v, got, err)
		}
		got, err := NewReader(w.Bytes()).Int()
		if v < math.MinInt || v > math.MaxInt {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Int read %d beyond int's range as %d, %v; want ErrCorrupt", v, got, err)
			}
			continue
		}
		if err != nil || int64(got) != v {
			t.Fatalf("Int read %d as %d, %v", v, got, err)
		}
		iw := NewWriter()
		iw.Int(int(v))
		if !bytes.Equal(iw.Bytes(), w.Bytes()) {
			t.Fatalf("Int and Int64 encode %d differently: %x vs %x", v, iw.Bytes(), w.Bytes())
		}
	}
}
