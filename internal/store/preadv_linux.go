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

// preadvFull reads len(iovs) buffers' worth of bytes starting at off, filling
// the buffers in order, retrying short reads and EINTR until every byte is in
// place. Returns an error if the file ends early.
func preadvFull(fd uintptr, iovs [][]byte, off int64) error {
	var want int
	for _, b := range iovs {
		want += len(b)
	}
	done := 0
	iv := make([]syscall.Iovec, 0, min(len(iovs), iovMax))
	for done < want {
		iv = iv[:0]
		skip := done
		for _, b := range iovs {
			if skip >= len(b) {
				skip -= len(b)
				continue
			}
			part := b[skip:]
			skip = 0
			iv = append(iv, syscall.Iovec{Base: &part[0], Len: uint64(len(part))})
			if len(iv) == iovMax {
				break
			}
		}
		pos := off + int64(done)
		n, _, errno := syscall.Syscall6(syscall.SYS_PREADV, fd,
			uintptr(unsafe.Pointer(&iv[0])), uintptr(len(iv)),
			uintptr(pos&0xffffffff), uintptr(pos>>32), 0)
		runtime.KeepAlive(iovs)
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
	}
	return nil
}
