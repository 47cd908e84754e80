package remote

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"flor.dev/flor/internal/ckptfmt"
)

// MemStore is an in-memory ObjectStore: the reference implementation tests
// and the fault-injection battery build on. All operations copy, so callers
// can never alias the store's internal buffers; GetRange copies into a
// ckptfmt.Shared span, as FSStore reads into one.
type MemStore struct {
	mu      sync.RWMutex
	objects map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objects: map[string][]byte{}}
}

// Size implements ObjectStore.
func (s *MemStore) Size(key string) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.objects[key]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return int64(len(data)), nil
}

// Get implements ObjectStore.
func (s *MemStore) Get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.objects[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return append([]byte(nil), data...), nil
}

// GetRange implements ObjectStore.
func (s *MemStore) GetRange(key string, off, n int64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.objects[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if off < 0 || n < 0 || n > int64(len(data))-off {
		return nil, fmt.Errorf("remote: get range %s [%d,%d): beyond object length %d", key, off, off+n, len(data))
	}
	buf := ckptfmt.Shared.Get(int(n))
	copy(buf, data[off:off+n])
	return buf, nil
}

// Put implements ObjectStore.
func (s *MemStore) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[key] = append([]byte(nil), data...)
	return nil
}

// List implements ObjectStore.
func (s *MemStore) List(prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []string
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete implements ObjectStore.
func (s *MemStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, key)
	return nil
}
