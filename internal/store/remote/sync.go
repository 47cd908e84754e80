package remote

import (
	"fmt"
	"os"
	"path"
	"path/filepath"
	"strings"

	"flor.dev/flor/internal/store"
)

// Remote layout of one run under its key prefix (see docs/FORMATS.md):
//
//	<prefix>/ctl/<file>    the run's control plane: FORMAT, MANIFEST (which
//	                       carries every checkpoint's directory), INDEX,
//	                       PROGRAM, record.log, timings.log — every run-directory
//	                       file that is not pack bytes
//	<prefix>/packs/<obj>   pack objects by backend name (CHUNKS, CHUNKS.g<n>)
//	<prefix>/LEASE         the writer lease (lease.go)
const (
	ctlDir   = "ctl"
	packsDir = "packs"
	// LeaseObject is the writer-lease key under a run (or pool) prefix.
	LeaseObject = "LEASE"
)

// PacksPrefix returns the key prefix pack objects live under — what an
// ObjectBackend serving the run should be rooted at.
func PacksPrefix(prefix string) string { return path.Join(prefix, packsDir) }

// LeaseKey returns the writer-lease key for a run (or shared-pool) prefix.
func LeaseKey(prefix string) string { return path.Join(prefix, LeaseObject) }

// isPackName reports whether a run-directory file is pack bytes (backend
// objects) rather than control plane.
func isPackName(name string) bool { return strings.HasPrefix(name, "CHUNKS") }

// leftBehind reports whether a run-directory file is no part of the run: a
// temp file of an interrupted write, or what an older build's gzip pass
// left beside the run (".gz" twins of segment files and packs, its SPOOL
// state).
// No reader opens them, so they are neither uploaded nor fetched.
func leftBehind(name string) bool {
	return strings.HasSuffix(name, ".tmp") || strings.HasSuffix(name, ".gz") || name == "SPOOL"
}

// UploadRun uploads the run at dir to the object store under prefix, control
// plane to <prefix>/ctl/ and pack objects to <prefix>/packs/. A run in a
// layout an older build left is refused (store.ErrLegacyLayout): migrate it
// first. Uploads are whole-object PUTs — there is no partial-object sync —
// and idempotent: objects whose remote length already matches the local
// file are skipped, so re-running after a crash only moves what is missing.
// Files that are no part of the run (leftBehind) are not uploaded. It
// returns how many objects were uploaded (not skipped).
//
// The caller is responsible for quiescence (upload after recording
// finishes) and, when the prefix is shared between daemons, for holding its
// writer lease.
func UploadRun(st ObjectStore, dir, prefix string) (int, error) {
	if err := store.DetectLayout(dir); err != nil {
		return 0, fmt.Errorf("remote: upload run: %w", err)
	}
	uploaded := 0
	up := func(local, key string) error {
		fi, err := os.Stat(local)
		if err != nil {
			return fmt.Errorf("remote: upload stat: %w", err)
		}
		if sz, err := st.Size(key); err == nil && sz == fi.Size() {
			return nil // already there
		}
		data, err := os.ReadFile(local)
		if err != nil {
			return fmt.Errorf("remote: upload read: %w", err)
		}
		if err := st.Put(key, data); err != nil {
			return fmt.Errorf("remote: upload %s: %w", key, err)
		}
		uploaded++
		return nil
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("remote: upload run: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || leftBehind(e.Name()) {
			continue
		}
		sub := ctlDir
		if isPackName(e.Name()) {
			sub = packsDir
		}
		if err := up(filepath.Join(dir, e.Name()), path.Join(prefix, sub, e.Name())); err != nil {
			return uploaded, err
		}
	}
	return uploaded, nil
}

// FetchControlPlane downloads the run's control plane from <prefix>/ctl/
// into dir (created if needed), returning how many files it wrote. Files an
// older upload shipped that are no part of the run (leftBehind) are
// skipped. Pack objects are never downloaded — that is the cache tier's
// job, block by block, on demand.
func FetchControlPlane(st ObjectStore, prefix, dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("remote: fetch control plane: %w", err)
	}
	ctl := path.Join(prefix, ctlDir) + "/"
	keys, err := st.List(ctl)
	if err != nil {
		return 0, fmt.Errorf("remote: fetch control plane: %w", err)
	}
	if len(keys) == 0 {
		return 0, fmt.Errorf("remote: fetch control plane: %w: no objects under %s", ErrNotFound, ctl)
	}
	fetched := 0
	for _, key := range keys {
		name := strings.TrimPrefix(key, ctl)
		if strings.Contains(name, "/") || leftBehind(name) {
			continue
		}
		data, err := st.Get(key)
		if err != nil {
			return fetched, fmt.Errorf("remote: fetch %s: %w", key, err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return fetched, fmt.Errorf("remote: fetch control plane: %w", err)
		}
		fetched++
	}
	return fetched, nil
}
