package store

// legacy.go is the read-compat seam for segment files, the one place that
// names them. Older builds wrote one ckpt-<seq>.bin per checkpoint (a
// CRC-framed directory in v2, the whole checkpoint in v1) beside a meta
// record that carries no directory. Open reads a v2 one into the index once;
// GC's manifest rewrite carries every directory, and removes the files.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
)

func segmentPath(runDir string, seq int) string {
	return filepath.Join(runDir, fmt.Sprintf("ckpt-%08d.bin", seq))
}

// loadSegment completes an entry whose meta record carries no directory. It
// reports false when the checkpoint's segment file is missing: the
// checkpoint is dropped. A v2 segment is read into e.dir, or e.dirErr says
// why it could not be; a v1 segment is the whole checkpoint, left on disk
// for readV1.
func loadSegment(runDir string, e *entry) bool {
	path := segmentPath(runDir, e.Seq)
	if e.Format != FormatV2 {
		_, err := os.Stat(path)
		return err == nil
	}
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false
	}
	if err != nil {
		e.dirErr = fmt.Errorf("store: read segment %d: %w", e.Seq, err)
		return true
	}
	payload, _, err := codec.Unframe(raw)
	if err == nil {
		e.dir, err = ckptfmt.DecodeDirectory(payload)
	}
	if err != nil {
		e.dirErr = fmt.Errorf("store: segment %d: %w", e.Seq, err)
	}
	return true
}

// readV1 returns a format-v1 checkpoint's payload: its whole segment file.
func (s *Store) readV1(e *entry) ([]byte, error) {
	raw, err := os.ReadFile(segmentPath(s.dir, e.Seq))
	if err != nil {
		return nil, fmt.Errorf("store: read segment %d: %w", e.Seq, err)
	}
	payload, _, err := codec.Unframe(raw)
	if err != nil {
		return nil, fmt.Errorf("store: segment %d: %w", e.Seq, err)
	}
	return payload, nil
}

// removeSegments deletes every segment file of a run, with the gzip twin an
// older build may have written beside it. Only GC calls it, once the
// manifest it rewrote carries every live directory.
func removeSegments(runDir string) error {
	paths, err := filepath.Glob(filepath.Join(runDir, "ckpt-*.bin*"))
	if err != nil {
		return err
	}
	for _, path := range paths {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("store: gc remove: %w", err)
		}
	}
	return nil
}
