//go:build !linux

package store

import "errors"

// packFd never offers a descriptor without preadv(2): every run takes the
// staged read strategy.
func packFd(BackendReader) (uintptr, bool) { return 0, false }

// iovecs stands in for the vector of a preadv this platform does not have.
type iovecs [][]byte

func (v *iovecs) add(b []byte) { *v = append(*v, b) }

func (v iovecs) readFull(fd uintptr, off int64) error {
	return errors.New("preadv unsupported on this platform")
}
