//go:build linux

package store

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"

	"flor.dev/flor/internal/codec"
)

// packFd returns the file descriptor behind a pack reader when it has one:
// the capability that selects the vectored read strategy.
func packFd(pf BackendReader) (uintptr, bool) {
	f, ok := pf.(interface{ Fd() uintptr })
	if !ok {
		return 0, false
	}
	return f.Fd(), true
}

// iovecs is the vector of one run's preadv, built once per run by add and
// consumed in place by readFull.
type iovecs []syscall.Iovec

// add appends b to the vector; an empty buffer takes no entry.
func (v *iovecs) add(b []byte) {
	if len(b) == 0 {
		return
	}
	e := syscall.Iovec{Base: &b[0]}
	e.SetLen(len(b))
	*v = append(*v, e)
}

// offs2lohi splits a file offset into preadv's pos_l and pos_h the way the
// kernel joins them again (pos_from_hilo shifts pos_h left by a whole long):
// pos_l is a whole long, so a 64-bit kernel takes the offset from it alone,
// and pos_h carries only what a 32-bit long cannot hold.
func offs2lohi(off int64) (lo, hi uintptr) {
	const longBits = 32 << (^uintptr(0) >> 63)
	return uintptr(off), uintptr(uint64(off) >> (longBits - 1) >> 1)
}

// readFull reads the vector's bytes starting at off, filling its buffers in
// order, retrying short reads and EINTR until every byte is in place: a
// short read advances the vector past the bytes that landed, so the vector
// is never rebuilt. The vector's entries are consumed. Returns an error if
// the file ends early.
func (v iovecs) readFull(fd uintptr, off int64) error {
	var want int
	for i := range v {
		want += int(v[i].Len)
	}
	iv, done := []syscall.Iovec(v), 0
	for done < want {
		pos := off + int64(done)
		lo, hi := offs2lohi(pos)
		n, _, errno := syscall.Syscall6(syscall.SYS_PREADV, fd,
			uintptr(unsafe.Pointer(&iv[0])), uintptr(min(len(iv), iovMax)), lo, hi, 0)
		if errno != 0 {
			if errno == syscall.EINTR {
				continue
			}
			return fmt.Errorf("preadv: %v", errno)
		}
		if n == 0 {
			return fmt.Errorf("%w: preadv: unexpected EOF at %d (%d of %d bytes)",
				codec.ErrCorrupt, pos, done, want)
		}
		done += int(n)
		for n > 0 {
			if l := uintptr(iv[0].Len); n >= l {
				n -= l
				iv = iv[1:]
				continue
			}
			iv[0].Base = (*byte)(unsafe.Add(unsafe.Pointer(iv[0].Base), n))
			iv[0].SetLen(int(uintptr(iv[0].Len) - n))
			n = 0
		}
	}
	runtime.KeepAlive(v)
	return nil
}
