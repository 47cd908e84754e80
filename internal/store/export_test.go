package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// PlantLayout leaves dir as a build that could still choose a store's layout
// left a fresh one before its first put: FORMAT "2 shards=fanout" ("2" at
// fanout 1) and, with roots, a SHARDS file listing them one per line
// (relative entries resolve against dir). The next open adopts both, as it
// adopts a store that build recorded.
func PlantLayout(t testing.TB, dir string, fanout int, roots ...string) {
	t.Helper()
	marker := "2\n"
	if fanout > 1 {
		marker = fmt.Sprintf("2 shards=%d\n", fanout)
	}
	plant(t, dir, formatFile, marker)
	if len(roots) > 0 {
		plant(t, dir, "SHARDS", strings.Join(roots, "\n")+"\n")
	}
}

// PlantPool leaves root as such a build left a new shared pool at the given
// fanout: its POOL marker. The next run attached to root adopts it.
func PlantPool(t testing.TB, root string, fanout int) {
	t.Helper()
	plant(t, root, poolMarkerFile, string(poolMarker(fanout)))
}

func plant(t testing.TB, dir, name, content string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
