//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package store

import (
	"fmt"
	"os"
	"syscall"
)

// lockRoot takes the commit lock of the pool rooted at dir: an exclusive
// flock(2) on the directory, through a descriptor opened for this lock, so
// two instances in one process exclude each other as two processes do.
// unlock closes the descriptor, which releases the lock, as a dying process
// does.
func lockRoot(dir string) (unlock func(), err error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("store: lock %w", err)
	}
	for err = syscall.EINTR; err == syscall.EINTR; {
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: lock %s: %w", dir, err)
	}
	return func() { f.Close() }, nil
}
