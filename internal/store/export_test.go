package store

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"flor.dev/flor/internal/ckptfmt"
)

// Handles for the external (store_test) tests.
var (
	FetchWorkers = fetchWorkers // the restore worker-group width
	TestPayload  = testPayload
	SplitBundle  = splitBundle // the open-time v1 parser
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

// ReadAll reads every section of key's checkpoint into fresh buffers:
// Resolve, then ReadInto with have as its only callback.
func ReadAll(s *Store, key Key, have func(ckptfmt.Hash) bool) ([]Section, error) {
	c, err := s.Resolve(key)
	if err != nil {
		return nil, err
	}
	return c.ReadInto(nil, have, nil, nil)
}

// putBlob puts payload as a checkpoint of one section, named "".
func putBlob(s *Store, key Key, payload []byte, snapNs, serNs, computNs int64) (*Meta, error) {
	return s.PutSections(key, []Section{{Data: payload}}, snapNs, serNs, computNs)
}

// getBlob reads key's checkpoint back as its sections' bytes, concatenated:
// what putBlob put.
func getBlob(s *Store, key Key) ([]byte, error) {
	secs, err := ReadAll(s, key, nil)
	var out []byte
	for _, sec := range secs {
		out = append(out, sec.Data...)
	}
	return out, err
}

// plant writes a file named name holding content into dir, creating dir:
// a file as an older build, or damage, left it.
func plant(t testing.TB, dir, name, content string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// resetPoolRegistry drops every registered writable pool, as a fresh process
// starts: simulated crashes reopen pools from their files.
func resetPoolRegistry() {
	poolRegistry.Lock()
	defer poolRegistry.Unlock()
	poolRegistry.m = map[string]*ChunkPool{}
}

// asAnotherProcess runs f as a second process sharing this one's files
// would: against a registry of its own, so that none of this process's
// writable pool instances sees what f does in memory. This process's
// registry is back when f returns.
func asAnotherProcess(f func()) {
	poolRegistry.Lock()
	mine := poolRegistry.m
	poolRegistry.m = map[string]*ChunkPool{}
	poolRegistry.Unlock()
	defer func() {
		poolRegistry.Lock()
		poolRegistry.m = mine
		poolRegistry.Unlock()
	}()
	f()
}
