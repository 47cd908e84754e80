package remote

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"flor.dev/flor/internal/ckptfmt"
)

// FSStore is an ObjectStore rooted at a local directory — the "remote" for
// development, tests, and any deployment where the shared pool is a network
// filesystem. Keys map to files under the root (slashes become directories);
// Put writes a temp sibling and renames, so concurrent readers never observe
// a torn object.
type FSStore struct {
	root string
}

// NewFSStore returns a store rooted at dir, creating it if needed.
func NewFSStore(dir string) (*FSStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("remote: fs store root: %w", err)
	}
	return &FSStore{root: dir}, nil
}

// Root returns the store's root directory.
func (s *FSStore) Root() string { return s.root }

// path maps a key to its file, refusing escapes from the root.
func (s *FSStore) path(key string) (string, error) {
	clean := path.Clean("/" + key)[1:] // normalizes ".." and "//" away
	if clean == "" || clean == "." {
		return "", fmt.Errorf("remote: invalid key %q", key)
	}
	return filepath.Join(s.root, filepath.FromSlash(clean)), nil
}

// Size implements ObjectStore.
func (s *FSStore) Size(key string) (int64, error) {
	p, err := s.path(key)
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(p)
	if errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return 0, fmt.Errorf("remote: stat %s: %w", key, err)
	}
	return st.Size(), nil
}

// Get implements ObjectStore.
func (s *FSStore) Get(key string) ([]byte, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return nil, fmt.Errorf("remote: get %s: %w", key, err)
	}
	return data, nil
}

// GetRange implements ObjectStore.
func (s *FSStore) GetRange(key string, off, n int64) ([]byte, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return nil, fmt.Errorf("remote: get range %s: %w", key, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("remote: get range %s: %w", key, err)
	}
	// Check before allocating: a corrupt location must not size the buffer.
	if off < 0 || n < 0 || off+n > st.Size() {
		return nil, fmt.Errorf("remote: get range %s [%d,%d): beyond object length %d", key, off, off+n, st.Size())
	}
	buf := ckptfmt.Shared.Get(int(n))
	if _, err := io.ReadFull(io.NewSectionReader(f, off, n), buf); err != nil {
		ckptfmt.Shared.Put(buf)
		return nil, fmt.Errorf("remote: get range %s [%d,%d): %w", key, off, off+n, err)
	}
	return buf, nil
}

// Put implements ObjectStore: temp sibling + rename, atomic on POSIX.
func (s *FSStore) Put(key string, data []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("remote: put %s: %w", key, err)
	}
	tmp := p + ".put-tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("remote: put %s: %w", key, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("remote: put %s: %w", key, err)
	}
	return nil
}

// List implements ObjectStore.
func (s *FSStore) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.WalkDir(s.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, rerr := filepath.Rel(s.root, p)
		if rerr != nil {
			return rerr
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) && !strings.HasSuffix(key, ".put-tmp") {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("remote: list %s: %w", prefix, err)
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete implements ObjectStore.
func (s *FSStore) Delete(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("remote: delete %s: %w", key, err)
	}
	return nil
}
