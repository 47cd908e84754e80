package store

import (
	"sync/atomic"
	"testing"

	"flor.dev/flor/internal/ckptfmt"
)

// Handles for the external (store_test) tests.
var (
	FetchWorkers = fetchWorkers // the restore worker-group width
	TestPayload  = testPayload
)

// VerifyOffers installs, until the test ends, a putHook that re-hashes every
// chunk whose hash was offered — failing the put on a mismatch — and counts
// the bytes of the chunks putV2 hashed itself; read the count once the puts
// have returned. Not for parallel tests: the hook is process-wide.
func VerifyOffers(t testing.TB) (hashed *atomic.Int64) {
	t.Helper()
	hashed = new(atomic.Int64)
	prev := putHook
	putHook = func(chunk []byte, h ckptfmt.Hash, offered bool) error {
		if !offered {
			hashed.Add(int64(len(chunk)))
		}
		return verifyOffered(chunk, h, offered)
	}
	t.Cleanup(func() { putHook = prev })
	return hashed
}
