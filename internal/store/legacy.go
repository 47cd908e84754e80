package store

// legacy.go holds every layout older builds left — format v1, segment
// files, chunk records in a MANIFEST or an INDEX log, the full marker
// grammar, packs split by hash prefix into shards, SHARDS extra pack roots —
// and the one reader of every layout, ReadLegacy, which only core.Migrate
// calls; every open refuses them (ErrLegacyLayout). docs/FORMATS.md's
// migration appendix specifies their bytes.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/value"
)

const (
	formatV1       = 1        // the Meta.Format of a checkpoint a v1 segment holds whole
	shardRootsFile = "SHARDS" // a legacy store's extra pack roots, one per line
)

// ReadLegacy reads the run at dir, in any layout a build ever recorded —
// the two this build writes included — and calls fn with each live
// checkpoint and all of its sections (Data, Hash, RawLen), in commit order:
// one sequential pass, with no fetch pipeline, pool, cache, lock,
// statistics or GC, that writes nothing. A checkpoint whose segment file is
// missing was never committed; any other that cannot be read ends the pass
// with its error, as does an error of fn.
func ReadLegacy(dir string, fn func(Meta, []Section) error) error {
	r, err := openLegacy(dir)
	if err != nil {
		return err
	}
	defer func() {
		for _, f := range r.packs {
			f.Close()
		}
	}()
	for _, e := range r.live {
		secs, err := r.sections(e)
		if err != nil {
			return fmt.Errorf("store: %s: checkpoint %s: %w", dir, e.Key, err)
		}
		if err := fn(e.Meta, secs); err != nil {
			return err
		}
	}
	return nil
}

// legacyRun is a run directory opened by ReadLegacy.
type legacyRun struct {
	dir    string
	fanout int                       // the pack count: 1, or the shard count of a sharded store or pool
	roots  []string                  // pack roots: the run's or its pool's, then SHARDS entries
	chunks map[ckptfmt.Hash]chunkLoc // each shard's active generation's chunk records
	live   []*entry                  // latest per key, in commit order
	packs  map[string]*os.File       // the packs chunks holds records of, open until the pass ends
}

// openLegacy reads the run's marker, manifest and chunk records, opens its
// packs, and finds which segment files survived.
func openLegacy(dir string) (*legacyRun, error) {
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return nil, fmt.Errorf("store: read %s: not a run directory (%v)", dir, err)
	}
	r := &legacyRun{dir: dir, roots: []string{dir}, chunks: map[ckptfmt.Hash]chunkLoc{}, packs: map[string]*os.File{}}
	decode, m := decodeManifestRecord, legacyMarker{fanout: 1}
	raw, err := os.ReadFile(filepath.Join(dir, formatFile))
	switch {
	case errors.Is(err, os.ErrNotExist):
		decode = decodeV1Record
	case err != nil:
		return nil, fmt.Errorf("store: read format marker: %w", err)
	default:
		var ok bool
		if m, ok = parseLegacyMarker(raw); !ok {
			return nil, &UnknownFormatError{Dir: dir, Marker: strings.TrimSpace(string(raw))}
		}
	}
	r.fanout = m.fanout
	var recs []manifestRecord
	collect := func(rec manifestRecord) error {
		recs = append(recs, rec)
		return nil
	}
	if _, _, err := scanLog(filepath.Join(dir, manifestFile), decode, collect); err != nil {
		return nil, err
	}
	metas := recs
	if m.pooled {
		if len(recs) == 0 || recs[0].tag != recPool || recs[0].ref == "" || recs[0].fanout != r.fanout {
			return nil, fmt.Errorf("%w: pooled run %s: manifest does not start with a pool-reference record at fanout %d", codec.ErrCorrupt, dir, r.fanout)
		}
		r.roots = []string{resolveRunPath(dir, recs[0].ref)}
	} else {
		extra, err := shardRoots(dir)
		if err != nil {
			return nil, err
		}
		r.roots = append(r.roots, extra...)
	}
	switch {
	case m.packlog:
		if recs, err = r.scanPacks(); err != nil {
			return nil, err
		}
	case m.index || m.pooled: // chunk records in an INDEX log, not the MANIFEST
		recs = nil
		if _, _, err := scanLog(filepath.Join(r.roots[0], poolIndexFile), decodeManifestRecord, collect); err != nil {
			return nil, err
		}
	}
	r.adopt(recs)

	// Commit: a segment-backed record counts only if its file survived.
	latest := map[Key]*entry{}
	var committed []*entry
	for _, rec := range metas {
		if e := rec.e; rec.tag == recMeta && (!dirless(rec) || segmentExists(dir, e.Seq)) {
			latest[e.Key] = e
			committed = append(committed, e)
		}
	}
	for _, e := range committed {
		if latest[e.Key] == e {
			r.live = append(r.live, e)
		}
	}
	return r, nil
}

// decodeV1Record decodes a v1 MANIFEST's untagged meta record: a v2 one's
// fields, which may end before the format fields, and no directory.
func decodeV1Record(b []byte) (rec manifestRecord, n int, err error) {
	payload, n, err := codec.Unframe(b)
	if err != nil {
		return rec, 0, err
	}
	r := codec.NewReader(payload)
	rec.tag = recMeta
	if rec.e, err = decodeMetaHead(r); err == nil && r.Remaining() == 0 {
		rec.e.Format, rec.e.StoredBytes = formatV1, rec.e.Size
	} else if err == nil {
		err = rec.e.decodeFormat(r)
	}
	return rec, n, err
}

// scanPacks reads the chunk records of a store whose packs are its log: the
// whole frames of each shard's pack, at the generation the INDEX snapshot's
// record of the shard names (0 where it names none).
func (r *legacyRun) scanPacks() ([]manifestRecord, error) {
	gens := make([]int, r.fanout)
	_, _, err := scanLog(filepath.Join(r.roots[0], poolIndexFile), decodeManifestRecord, func(rec manifestRecord) error {
		if rec.tag == recShard && rec.shard.index < r.fanout {
			gens[rec.shard.index] = rec.shard.gen
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var recs []manifestRecord
	for i, gen := range gens {
		obj := packObjName(shardName(r.fanout, i), gen)
		b := DirBackendAt(filepath.Dir(r.packPath(obj)))
		n, err := b.Size(obj) // 0 for a shard no put reached
		var got []poolChunkRec
		if err == nil {
			got, _, _, err = scanPack(b, obj, gen, 0, n)
		}
		if err != nil {
			return nil, err
		}
		for _, cr := range got {
			recs = append(recs, manifestRecord{tag: recChunk, hash: cr.hash, loc: cr.loc})
		}
	}
	return recs, nil
}

// adopt installs the chunk records among recs (the first of a hash wins),
// but none of a generation older than the newest its shard's records name
// and none that cannot locate a frame inside its pack, so that no read is
// sized by such a record.
func (r *legacyRun) adopt(recs []manifestRecord) {
	gens := make([]int, r.fanout)
	for _, rec := range recs {
		if _, dup := r.chunks[rec.hash]; rec.tag == recChunk && !dup {
			r.chunks[rec.hash] = rec.loc
			si := shardIndex(rec.hash, r.fanout)
			gens[si] = max(gens[si], rec.loc.Gen)
		}
	}
	sizes := map[string]int64{} // each pack's, opened once here; -1 if it cannot be
	for h, loc := range r.chunks {
		obj := r.packObj(h, loc.Gen)
		if _, ok := sizes[obj]; !ok {
			sizes[obj] = -1
			if f, err := os.Open(r.packPath(obj)); err == nil {
				r.packs[obj] = f
				if st, err := f.Stat(); err == nil {
					sizes[obj] = st.Size()
				}
			}
		}
		if loc.Gen != gens[shardIndex(h, r.fanout)] || !loc.valid(sizes[obj]) {
			delete(r.chunks, h)
		}
	}
}

// sections reads every section of a live checkpoint: a v1 one's out of its
// segment's bundle, any other's chunk by chunk out of the packs, under the
// directory its meta record or its segment file holds. Each segment file is
// read and decoded once, here.
func (r *legacyRun) sections(e *entry) ([]Section, error) {
	if e.dirErr != nil {
		return nil, e.dirErr
	}
	dir := e.dir
	var bundle [][]byte // a v1 checkpoint's sections
	if dir == nil {
		payload, err := readSegment(r.dir, e.Seq)
		if err == nil && e.Format == formatV1 {
			dir, bundle, err = splitBundle(payload)
		} else if err == nil {
			dir, err = ckptfmt.DecodeDirectory(payload)
		}
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", e.Seq, err)
		}
	}
	secs := make([]Section, len(dir.Sections))
	for i := range dir.Sections {
		ds := &dir.Sections[i]
		secs[i] = Section{Name: ds.Name, Hash: contentHash(ds), RawLen: ds.RawLen()}
		if bundle != nil {
			secs[i].Data = bundle[i]
			continue
		}
		for _, ref := range ds.Chunks { // before a buffer is sized by the directory
			if loc, ok := r.chunks[ref.Hash]; !ok || loc.RawLen != ref.RawLen {
				return nil, fmt.Errorf("%w: no chunk record holds %s's %d raw bytes", codec.ErrCorrupt, ref.Hash, ref.RawLen)
			}
		}
		secs[i].Data = make([]byte, secs[i].RawLen)
		off := 0
		for _, ref := range ds.Chunks { // each frame's CRC checked, and that it holds ref's content
			loc := r.chunks[ref.Hash]
			obj, rec := r.packObj(ref.Hash, loc.Gen), make([]byte, loc.EncLen)
			_, err := r.packs[obj].ReadAt(rec, loc.Off)
			if err != nil {
				err = fmt.Errorf("%w: read %d bytes: %v", codec.ErrCorrupt, loc.EncLen, err)
			} else if frame, ferr := ckptfmt.ParseDecodeInto(rec, secs[i].Data[off:off+ref.RawLen]); ferr != nil {
				err = ferr
			} else if frame.Hash != ref.Hash {
				err = fmt.Errorf("%w: holds %s, the directory wants %s", codec.ErrCorrupt, frame.Hash, ref.Hash)
			}
			if err != nil {
				return nil, fmt.Errorf("pack %s frame at %d: %w", obj, loc.Off, err)
			}
			off += ref.RawLen
		}
	}
	return secs, nil
}

// packObj names the pack object of chunk h's shard at generation gen.
func (r *legacyRun) packObj(h ckptfmt.Hash, gen int) string {
	return packObjName(shardName(r.fanout, shardIndex(h, r.fanout)), gen)
}

// shardIndex maps a content hash to its shard in a store at fanout, a power
// of two: the hash's top byte masked to the fanout. The shard is a pure
// function of the hash, so chunk records never name it.
func shardIndex(h ckptfmt.Hash, fanout int) int { return int(h[0]) & (fanout - 1) }

// shardName names shard i's pack object at fanout: "CHUNKS" for a single
// pack, "CHUNKS-xx" otherwise.
func shardName(fanout, i int) string {
	if fanout == 1 {
		return packFile
	}
	return fmt.Sprintf("%s-%02x", packFile, i)
}

// packPath places a pack object on a root: the FNV-1a hash of its name
// modulo the root count, in uint32 arithmetic as 64-bit builds placed it.
func (r *legacyRun) packPath(name string) string {
	h := fnv.New32a()
	h.Write([]byte(name))
	return filepath.Join(r.roots[h.Sum32()%uint32(len(r.roots))], name)
}

func segmentPath(runDir string, seq int) string {
	return filepath.Join(runDir, fmt.Sprintf("ckpt-%08d.bin", seq))
}

// segmentExists reports whether a segment file survived: a missing one uncommits.
func segmentExists(runDir string, seq int) bool {
	_, err := os.Stat(segmentPath(runDir, seq))
	return !errors.Is(err, os.ErrNotExist)
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
// tagged payload) pairs — into one section per entry, each exactly its
// payload's encoding (data[i], aliasing b), under the directory a v2 put of
// them records. Every failure is codec.ErrCorrupt.
func splitBundle(b []byte) (dir *ckptfmt.Directory, data [][]byte, err error) {
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
		data = append(data, b[off:len(b)-r.Remaining()])
		chunks := codec.SplitChunks(data[i], ckptfmt.DefaultChunkSize)
		sec := ckptfmt.SectionRef{Name: name, Chunks: make([]ckptfmt.ChunkRef, len(chunks))}
		for j, c := range chunks {
			sec.Chunks[j] = ckptfmt.ChunkRef{Hash: ckptfmt.HashChunk(c), RawLen: len(c)}
		}
		dir.Sections = append(dir.Sections, sec)
	}
	if r.Remaining() > 0 {
		return nil, nil, fmt.Errorf("%w: %d bytes past a v1 bundle", codec.ErrCorrupt, r.Remaining())
	}
	return dir, data, nil
}

// legacyMarker is what a FORMAT marker says of a store.
type legacyMarker struct {
	fanout  int  // its pack count
	pooled  bool // its packs are a pool's, which its pool-reference record names
	index   bool // its chunk records are an INDEX log's
	packlog bool // its chunk records are its packs' frames
}

// parseLegacyMarker decodes a FORMAT file in the grammar every build wrote,
// "2[ pool][ shards=N][ gc][ lz4][ dirs][ index| packlog]", tokens in that
// order (docs/FORMATS.md); the two markers this build writes are sentences
// of it. ok is false for anything else.
func parseLegacyMarker(raw []byte) (m legacyMarker, ok bool) {
	fields := strings.Fields(string(raw))
	if len(fields) == 0 || fields[0] != "2" {
		return m, false
	}
	m.fanout = 1
	rest := fields[1:]
	if len(rest) > 0 && rest[0] == "pool" {
		m.pooled, rest = true, rest[1:]
	}
	if len(rest) > 0 && strings.HasPrefix(rest[0], "shards=") {
		m.fanout, ok = parseShards(rest[0])
		if !ok || m.fanout == 1 && !m.pooled { // a pool at fanout 1 is legal (single pack, still shared)
			return legacyMarker{}, false
		}
		rest = rest[1:]
	} else if m.pooled {
		return legacyMarker{}, false // pooled markers always carry the fanout
	}
	for _, flag := range []string{"gc", "lz4", "dirs"} {
		if len(rest) > 0 && rest[0] == flag {
			rest = rest[1:]
		}
	}
	if len(rest) > 0 && (rest[0] == "index" || rest[0] == "packlog") {
		m.index, m.packlog, rest = rest[0] == "index", rest[0] == "packlog", rest[1:]
	}
	return m, len(rest) == 0
}

// parseLegacyPoolMarker decodes a POOL marker older builds wrote: "pool1
// shards=N" (an INDEX log), or "pool2 shards=16" (16 packs that are the log).
func parseLegacyPoolMarker(raw []byte) (fanout int, ok bool) {
	fields := strings.Fields(string(raw))
	if len(fields) != 2 {
		return 0, false
	}
	fanout, ok = parseShards(fields[1])
	return fanout, ok && (fields[0] == "pool1" || fields[0] == "pool2" && fanout == 16)
}

// parseShards reads a marker's "shards=N" token: N a power of two in [1,
// 256] — what one hash byte can address — written as %d writes it.
func parseShards(tok string) (int, bool) {
	digits, ok := strings.CutPrefix(tok, "shards=")
	n, err := strconv.Atoi(digits)
	return n, ok && err == nil && strconv.Itoa(n) == digits && n >= 1 && n <= 256 && n&(n-1) == 0
}

// shardRoots returns the extra pack roots dir's SHARDS file lists, if any.
func shardRoots(dir string) ([]string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, shardRootsFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read shard dirs: %w", err)
	}
	return parseShardRoots(dir, raw), nil
}

// parseShardRoots reads a SHARDS file: one root per non-blank line,
// relative ones resolved against dir.
func parseShardRoots(dir string, raw []byte) []string {
	var roots []string
	for _, ln := range strings.Split(string(raw), "\n") {
		if ln = strings.TrimSpace(ln); ln != "" {
			roots = append(roots, resolveRunPath(dir, ln))
		}
	}
	return roots
}
