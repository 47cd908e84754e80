//go:build !linux

package store

import "errors"

// packFd never offers a descriptor without preadv(2): every run takes the
// staged read strategy.
func packFd(BackendReader) (uintptr, bool) { return 0, false }

func preadvFull(fd uintptr, iovs [][]byte, off int64) error {
	return errors.New("preadv unsupported on this platform")
}
