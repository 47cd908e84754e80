//go:build linux

package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"flor.dev/flor/internal/codec"
)

// TestVectoredReadPastFourGiB pins that a vectored read at an offset past
// 4 GiB reads there, not at the offset modulo 4 GiB: a 64-bit kernel takes
// preadv's whole offset from its low word, so an offset split in 32-bit
// halves read a pack's frames past 4 GiB from 4 GiB earlier, and every one
// failed its CRC. A sparse file holds distinct bytes at 1 GiB and at 5 GiB,
// and the read at 5 GiB, split over two buffers, must return the 5 GiB
// bytes. A read that runs past the end of the file lands what the file has
// and then fails as corrupt. The test is skipped only where the filesystem
// refuses a sparse file that large.
func TestVectoredReadPastFourGiB(t *testing.T) {
	const low, high = 1 << 30, 5 << 30
	lowBytes, highBytes := []byte("one GiB: the wrong bytes"), []byte("five GiB: the right ones")
	f, err := os.Create(filepath.Join(t.TempDir(), "sparse"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(high + int64(len(highBytes))); err != nil {
		t.Skipf("the filesystem refuses a sparse file past 5 GiB: %v", err)
	}
	if _, err := f.WriteAt(lowBytes, low); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(highBytes, high); err != nil {
		t.Skipf("the filesystem refuses a write at 5 GiB: %v", err)
	}
	a, b := make([]byte, 10), make([]byte, len(highBytes)-10)
	var v iovecs
	v.add(a)
	v.add(nil)
	v.add(b)
	if err := v.readFull(f.Fd(), high); err != nil {
		t.Fatal(err)
	}
	if got := append(a, b...); !bytes.Equal(got, highBytes) {
		t.Fatalf("read at 5 GiB returned %q, want %q", got, highBytes)
	}

	tail := make([]byte, 8)
	var w iovecs
	w.add(tail)
	err = w.readFull(f.Fd(), high+int64(len(highBytes))-4)
	if !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("a read past the end returned %v, want codec.ErrCorrupt", err)
	}
	if !bytes.Equal(tail[:4], highBytes[len(highBytes)-4:]) {
		t.Fatalf("a read past the end landed %q before failing, want the file's last 4 bytes", tail[:4])
	}
}
