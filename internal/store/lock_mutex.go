//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package store

import "sync"

// commitMu is the commit lock where syscall has no Flock: one mutex for
// every pool, which orders this process's writers and no other's.
var commitMu sync.Mutex

// lockRoot takes the commit lock of the pool rooted at dir.
func lockRoot(dir string) (unlock func(), err error) {
	commitMu.Lock()
	return commitMu.Unlock, nil
}
