package store

// legacy.go is the read-compat seam for what older builds left in a run
// directory and this one never writes, the one place that names it. A store
// holding either is read-only: a writable open fails with ErrLegacyLayout,
// and core.Migrate copies the run into a store of a layout this build
// writes.
//
//   - Segment files. Older builds wrote one ckpt-<seq>.bin per checkpoint (a
//     CRC-framed directory in v2, the whole checkpoint as a bundle in v1)
//     beside a meta record that carries no directory. Open reads each one
//     once, into the directory the index holds: a v2 one decoded, a v1 one
//     split into its entries and hashed.
//   - Extra pack roots. Older builds could spread a sharded store's packs
//     over more directories than the run's own, listed one per line in its
//     SHARDS file; DirBackend places each pack object on a root by hashing
//     its name, so the list and its order are fixed for the store's life.
//   - Chunk records in a MANIFEST. Older builds committed a private store's
//     chunk records ('C') in its MANIFEST, beside its meta records, where
//     this build commits them to the run's INDEX (marker token "index").
//     Open adopts them into the pool of one (adoptManifestChunks).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/value"
)

// adoptManifestChunks installs the chunk records among a legacy private
// store's MANIFEST records into its pool of one, as ChunkPool.open replays
// an INDEX (first record wins). It runs at open, before finishOpen.
func adoptManifestChunks(p *ChunkPool, recs []manifestRecord) {
	for _, rec := range recs {
		if rec.tag == recChunk {
			p.adopt(rec.hash, rec.loc)
		}
	}
}

func segmentPath(runDir string, seq int) string {
	return filepath.Join(runDir, fmt.Sprintf("ckpt-%08d.bin", seq))
}

// loadSegment completes an entry whose meta record carries no directory. It
// reports false when the checkpoint's segment file is missing: the
// checkpoint is dropped. Otherwise e.dir is the segment's directory, or
// e.dirErr says why it could not be read.
func loadSegment(runDir string, e *entry) bool {
	payload, err := readSegment(runDir, e.Seq)
	if errors.Is(err, os.ErrNotExist) {
		return false
	}
	if err == nil && e.Format == FormatV1 {
		e.dir, e.segOffs, err = splitBundle(payload)
	} else if err == nil {
		e.dir, err = ckptfmt.DecodeDirectory(payload)
	}
	if err != nil {
		e.dirErr = fmt.Errorf("store: segment %d: %w", e.Seq, err)
	}
	return true
}

// readSegment returns a segment file's payload, its CRC checked.
func readSegment(runDir string, seq int) ([]byte, error) {
	raw, err := os.ReadFile(segmentPath(runDir, seq))
	if err != nil {
		return nil, err
	}
	payload, _, err := codec.Unframe(raw)
	return payload, err
}

// splitBundle splits a v1 checkpoint — a uvarint entry count, then (name,
// tagged payload) pairs — into one section per entry, in bundle order, each
// section's bytes exactly its payload's encoding. The directory is the one a
// v2 put of those sections records; offs[i] is where section i starts in b.
// Only bytes that are the bundle of their sections split, so every failure
// is codec.ErrCorrupt.
func splitBundle(b []byte) (dir *ckptfmt.Directory, offs []int, err error) {
	r := codec.NewReader(b)
	n, err := r.Uvarint()
	if err == nil && n > uint64(r.Remaining()) {
		err = fmt.Errorf("%w: implausible entry count %d", codec.ErrCorrupt, n)
	}
	if err != nil {
		return nil, nil, err
	}
	dir = &ckptfmt.Directory{Sections: make([]ckptfmt.SectionRef, 0, n)}
	for i := uint64(0); i < n; i++ {
		name, err := r.String()
		if err != nil {
			return nil, nil, err
		}
		off := len(b) - r.Remaining()
		if _, err := value.DecodeTaggedPayload(r); err != nil {
			return nil, nil, fmt.Errorf("%w: v1 entry %q: %w", codec.ErrCorrupt, name, err)
		}
		chunks := codec.SplitChunks(b[off:len(b)-r.Remaining()], ckptfmt.DefaultChunkSize)
		sec := ckptfmt.SectionRef{Name: name, Chunks: make([]ckptfmt.ChunkRef, len(chunks))}
		for j, c := range chunks {
			sec.Chunks[j] = ckptfmt.ChunkRef{Hash: ckptfmt.HashChunk(c), RawLen: len(c)}
		}
		dir.Sections = append(dir.Sections, sec)
		offs = append(offs, off)
	}
	if r.Remaining() > 0 {
		return nil, nil, fmt.Errorf("%w: %d bytes past a v1 bundle", codec.ErrCorrupt, r.Remaining())
	}
	return dir, offs, nil
}

// fill puts every job's chunk bytes into its destination; jobs are the
// chunks of the sections load names, in order. This is the read path's one
// format branch. A v2 checkpoint's chunks are resolved in the pool's dedup
// index, locking each involved shard once, then fetched and decoded by the
// one read pipeline. A v1 checkpoint's come from one CRC-checked read of its
// segment, attributed to the ranged tier.
func (c *Checkpoint) fill(load []int, jobs []chunkJob, byShard map[int][]int, fs *FetchStats) error {
	p := c.s.pool
	if c.e.Format != FormatV1 {
		if err := p.resolve(jobs, byShard, c.e.Key); err != nil || len(jobs) == 0 {
			return err
		}
		return p.fetch(jobs, byShard, fs)
	}
	payload, err := readSegment(c.s.dir, c.e.Seq)
	if err != nil {
		return fmt.Errorf("store: segment %d: %w", c.e.Seq, err)
	}
	var n int64
	k := 0
	for _, i := range load {
		off := c.e.segOffs[i]
		for _, ref := range c.e.dir.Sections[i].Chunks {
			if off+ref.RawLen > len(payload) {
				return fmt.Errorf("%w: segment %d ends at %d, inside section %q", codec.ErrCorrupt, c.e.Seq, len(payload), c.e.dir.Sections[i].Name)
			}
			copyPieces(jobs[k].dst, [][]byte{payload[off : off+ref.RawLen]})
			off += ref.RawLen
			n += int64(ref.RawLen)
			k++
		}
	}
	p.countFetch(tierRanged, n, int64(len(jobs)), fs)
	return nil
}

// ShardRoots returns the extra pack roots a plain open of dir uses: the
// entries of its SHARDS file, relative ones resolved against dir; none for a
// directory without one (every store this build creates). Registration paths
// that confine run directories confine these roots too, and pin them
// (Options.ShardDirs).
func ShardRoots(dir string) ([]string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "SHARDS"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read shard dirs: %w", err)
	}
	return parseShardRoots(dir, raw), nil
}

// parseShardRoots reads a SHARDS file: one root per non-blank line, relative
// ones resolved against dir.
func parseShardRoots(dir string, raw []byte) []string {
	var roots []string
	for _, ln := range strings.Split(string(raw), "\n") {
		if ln = strings.TrimSpace(ln); ln != "" {
			roots = append(roots, resolveRunPath(dir, ln))
		}
	}
	return roots
}

// packRoots returns the root directories of a store's local backend: the
// run directory, then its ShardRoots. A pin (Options.ShardDirs, or an empty
// one with PinShardDirs) must name exactly those roots, in order: adopting
// any other list would relocate every pack lookup away from the real packs.
func packRoots(dir string, o Options) ([]string, error) {
	roots, err := ShardRoots(dir)
	if err != nil {
		return nil, err
	}
	if len(o.ShardDirs) > 0 || o.PinShardDirs {
		pin := make([]string, len(o.ShardDirs))
		for i, d := range o.ShardDirs {
			pin[i] = resolveRunPath(dir, d)
		}
		if !slices.Equal(pin, roots) {
			return nil, fmt.Errorf("store: cannot relocate shard packs of %s (its shard dirs are %q, not %q)", dir, roots, o.ShardDirs)
		}
	}
	return append([]string{dir}, roots...), nil
}
