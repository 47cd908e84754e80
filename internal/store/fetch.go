package store

// fetch.go is the restore read path: one planner that cuts a shard's chunk
// jobs into bounded runs, and one executor that reads each run with a single
// call and decodes its frames the moment the bytes land. Every restore and
// every prefetch warm goes through it, whatever the backend.
//
// How a run's bytes are obtained depends only on what the opened pack reader
// exposes:
//
//   - a file descriptor (local packs on Linux): one vectored preadv whose
//     large raw payloads land straight in their destination buffers;
//   - anything else (remote objects, wrapped backends, other platforms): one
//     ReadAt — ReadAtTier when offered — of the run into an arena span;
//   - no destination (warming): WarmAt when offered, else read and drop.
//
// The strategies are byte-identical by construction: both decode the same
// records into the same buffers and check the same CRCs and content hashes.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
)

// chunkJob is one frame to fetch and decode while materializing sections.
type chunkJob struct {
	dst []byte // decode destination within the section's owned buffer; nil when warming
	loc chunkLoc
	ref ckptfmt.ChunkRef
}

// maxCoalesceGap bounds the dead bytes two neighbouring chunk reads may
// carry between them and still be merged into one read. Re-reading up to
// 256 KiB of gap costs less than an extra read round-trip per chunk, yet a
// sparse restore (a few live chunks scattered over a big pack) still splits
// into separate reads instead of dragging the whole pack in.
const maxCoalesceGap = 256 << 10

// directReadMin is the frame-record size from which a raw frame's payload is
// read straight into its decode destination instead of through scratch: one
// kernel copy into the owned buffer, then a checksum over the hot copy.
// Below the threshold the extra vector entries stop amortizing and the whole
// record is staged.
const directReadMin = 64 << 10

// Run bounds. A run is read by one call, so its frame count is capped by
// IOV_MAX (at most three vector entries per frame), the scratch it may burn
// on gaps, frame overhead and staged records is bounded, and so is its
// direct payload: each run is checksummed right after its read, so a
// cache-sized batch keeps the verify pass streaming bytes the kernel copy
// just made hot.
const (
	iovMax        = 1024 // IOV_MAX: vector length limit of one preadv call
	maxRunFrames  = iovMax / 3
	maxRunScratch = 1 << 20
	maxRunPayload = 2 << 20
)

// minFetchWorkers floors the width of a restore's worker group: a handful of
// in-flight ranged GETs hides remote round-trips even on a one-core host.
const minFetchWorkers = 8

// fetchWorkers is the width of a restore's worker group: every decode core
// busy on local packs, and never fewer than minFetchWorkers reads in flight.
func fetchWorkers() int { return max(ckptfmt.Workers, minFetchWorkers) }

// restoreInflightBudget bounds the arena bytes one restore may hold staged
// across all of its runs, so a wide restore's peak memory stays bounded no
// matter how many workers race.
const restoreInflightBudget = 64 << 20

// byteBudget is a counting semaphore over bytes. A nil budget is unlimited.
type byteBudget struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int64
	free int64
}

func newByteBudget(n int64) *byteBudget {
	b := &byteBudget{cap: n, free: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// acquire blocks until n bytes are free and claims them, returning the
// claimed amount (n is clamped to the budget's capacity so one run larger
// than the whole budget cannot deadlock). Pass the return value to release.
func (b *byteBudget) acquire(n int64) int64 {
	if b == nil {
		return 0
	}
	if n > b.cap {
		n = b.cap
	}
	b.mu.Lock()
	for b.free < n {
		b.cond.Wait()
	}
	b.free -= n
	b.mu.Unlock()
	return n
}

// release returns bytes claimed by acquire.
func (b *byteBudget) release(n int64) {
	if b == nil || n == 0 {
		return
	}
	b.mu.Lock()
	b.free += n
	b.mu.Unlock()
	b.cond.Broadcast()
}

// fetchRun is one bounded, offset-contiguous read of a pack object covering
// its members' frame records (and the dead gaps between them).
type fetchRun struct {
	pf         BackendReader
	obj        string
	start, end int64
	members    []int // indices into jobs, in offset order
	scratch    int   // run bytes that are not direct payload: gaps, frame overhead, staged records
	enc        int64 // sum of the members' record lengths
}

// rawOverhead returns the header+trailer byte count j's record carries around
// its payload if it is the plain raw frame its directory ref implies and is
// large enough to be worth splitting, or -1 when the record is staged whole.
func rawOverhead(j *chunkJob) int {
	ov := j.loc.EncLen - j.ref.RawLen
	// A canonical raw header is 1 style byte, two equal uvarints (at least
	// one byte each), and the 16-byte hash; plus the 4-byte trailer.
	if j.loc.EncLen < directReadMin || ov < 1+1+1+16+4 || ov > 1+2*binary.MaxVarintLen64+16+4 {
		return -1
	}
	return ov
}

// planRuns offset-sorts one shard's jobs — large, small and compressed
// together — and cuts them into runs within the bounds above. Records never
// partially overlap (a pack is append-only), so a job that starts before the
// current run's end wants the run's last record again (zero-initialised
// tensors, repeated blocks): it joins the run and is decoded from the bytes
// already planned, so a deduplicated record is read once however often it is
// referenced.
func planRuns(pf BackendReader, obj string, jobs []chunkJob, idxs []int) []fetchRun {
	sorted := append([]int(nil), idxs...)
	sort.Slice(sorted, func(a, b int) bool { return jobs[sorted[a]].loc.Off < jobs[sorted[b]].loc.Off })
	var runs []fetchRun
	var cur *fetchRun
	payload := 0
	for k, ji := range sorted {
		j := &jobs[ji]
		if cur != nil && j.loc.Off < cur.end {
			cur.members = cur.members[:len(cur.members)+1]
			cur.enc += int64(j.loc.EncLen)
			continue
		}
		scratch, direct := j.loc.EncLen, 0
		if ov := rawOverhead(j); ov >= 0 {
			scratch, direct = ov, j.ref.RawLen
		}
		if cur != nil {
			gap := j.loc.Off - cur.end
			if gap > maxCoalesceGap || len(cur.members) == maxRunFrames ||
				cur.scratch+int(gap)+scratch > maxRunScratch || payload+direct > maxRunPayload {
				cur = nil
			} else {
				cur.scratch += int(gap)
			}
		}
		if cur == nil {
			runs = append(runs, fetchRun{pf: pf, obj: obj, start: j.loc.Off, members: sorted[k:k]})
			cur, payload = &runs[len(runs)-1], 0
		}
		cur.members = cur.members[:len(cur.members)+1] // a run is a window of sorted
		cur.scratch += scratch
		payload += direct
		cur.end = j.loc.Off + int64(j.loc.EncLen)
		cur.enc += int64(j.loc.EncLen)
	}
	return runs
}

// execute opens the pack object of every involved shard, plans each shard's
// runs, and drives do over the runs on up to width workers. It stops handing
// out runs after the first error — or once live (optional) reports false —
// and returns the encoded bytes of the runs that completed. Jobs of one shard
// always share a generation (locations were resolved atomically under the
// shard lock). A missing pack object surfaces ErrStalePack: the generation
// was compacted away and deleted after its grace period, so the caller's
// resolved locations are stale, not corrupt.
func (p *ChunkPool) execute(jobs []chunkJob, byShard map[int][]int, width int, live func() bool, do func(*fetchRun) error) (int64, error) {
	if live != nil && !live() {
		return 0, nil // dead before it began: not even the opens (remote HEADs) are paid
	}
	shards := make([]int, 0, len(byShard))
	for si := range byShard {
		shards = append(shards, si)
	}
	packs := make([]BackendReader, len(shards))
	defer func() {
		for _, pf := range packs {
			if pf != nil {
				pf.Close()
			}
		}
	}()
	objs := make([]string, len(shards))
	errs := make([]error, len(shards))
	ckptfmt.ParallelDo(len(shards), func(k int) {
		objs[k] = packObjName(p.shardTab[shards[k]].name, jobs[byShard[shards[k]][0]].loc.Gen)
		pf, err := p.backend.Open(objs[k])
		switch {
		case err == nil:
			packs[k] = pf
		case errors.Is(err, os.ErrNotExist):
			errs[k] = fmt.Errorf("%w: shard %s: %v", ErrStalePack, objs[k], err)
		default:
			errs[k] = fmt.Errorf("store: shard %s: open pack: %w", objs[k], err)
		}
	})
	var runs []fetchRun
	for k, si := range shards {
		if errs[k] != nil {
			return 0, errs[k]
		}
		runs = append(runs, planRuns(packs[k], objs[k], jobs, byShard[si])...)
	}

	var (
		next, done atomic.Int64
		failed     atomic.Bool
		errOnce    sync.Once
		firstErr   error
	)
	work := func() {
		for !failed.Load() && (live == nil || live()) {
			i := int(next.Add(1)) - 1
			if i >= len(runs) {
				return
			}
			if err := do(&runs[i]); err != nil {
				errOnce.Do(func() { firstErr = err })
				failed.Store(true)
				return
			}
			done.Add(runs[i].enc)
		}
	}
	if width = min(width, len(runs)); width <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(width)
		for g := 0; g < width; g++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	return done.Load(), firstErr
}

// fetch reads and decodes every job into its destination buffer: the whole
// restore below chunk-location resolution.
func (p *ChunkPool) fetch(jobs []chunkJob, byShard map[int][]int, fs *FetchStats) error {
	bdgt := newByteBudget(restoreInflightBudget)
	_, err := p.execute(jobs, byShard, fetchWorkers(), nil, func(r *fetchRun) error {
		if fd, ok := packFd(r.pf); ok {
			return p.readRunVectored(fd, r, jobs, fs, bdgt)
		}
		return p.readRunStaged(r, jobs, fs, bdgt)
	})
	return err
}

// warmRun makes one run's blocks resident in the reader's cache tier — no
// decode, no destination. The tier admits the blocks directly from the remote
// fetch when the reader can warm; otherwise the bytes are read and dropped.
func warmRun(r *fetchRun) error {
	n := r.end - r.start
	if w, ok := r.pf.(WarmReader); ok {
		_, err := w.WarmAt(r.start, n)
		return err
	}
	buf := ckptfmt.Shared.Get(int(n))
	defer ckptfmt.Shared.Put(buf)
	_, err := r.pf.ReadAt(buf, r.start)
	return err
}

// readErr wraps a failed run read. A vanished object is a stale index; a pack
// shorter than its committed records claim is corruption; any other cause is
// wrapped (%w) so typed backend errors — retry budgets exhausted, injected
// test faults — stay visible to errors.Is.
func (r *fetchRun) readErr(err error) error {
	switch {
	case errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("%w: shard %s: %v", ErrStalePack, r.obj, err)
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("%w: shard %s: read [%d,%d): %v", codec.ErrCorrupt, r.obj, r.start, r.end, err)
	}
	return fmt.Errorf("store: shard %s: read [%d,%d): %w", r.obj, r.start, r.end, err)
}

// decodeRecord decodes one staged frame record into j's destination buffer
// and checks it holds the content the directory asked for. The CRC covers
// the whole frame and the directory pins the content hash, so the decode
// skips the redundant hash recompute: deterministic decoding of CRC-clean
// bytes into the checked hash's frame cannot diverge.
func (r *fetchRun) decodeRecord(rec []byte, j *chunkJob) error {
	frame, err := ckptfmt.ParseDecodeInto(rec, j.dst)
	if err != nil {
		return fmt.Errorf("store: shard %s frame at %d: %w", r.obj, j.loc.Off, err)
	}
	return r.checkHash(j, frame.Hash)
}

func (r *fetchRun) checkHash(j *chunkJob, got ckptfmt.Hash) error {
	if got != j.ref.Hash {
		return fmt.Errorf("%w: shard %s frame at %d holds %s, directory wants %s",
			codec.ErrCorrupt, r.obj, j.loc.Off, got, j.ref.Hash)
	}
	return nil
}

// readRunVectored reads a run with one vectored pread. The payload of every
// record planned as a large raw frame lands straight in its destination
// buffer; everything between payloads — gaps, headers, trailers, whole small
// and compressed records — is contiguous in the file and lands contiguously
// in one arena scratch span. A record whose bytes turn out not to hold the
// assumed raw shape (a compressed frame of coincidental size) is re-read
// alone through the staged strategy. A member that repeats the previous
// member's record added no bytes to the read: it is decoded from the same
// scratch, or copied from the first member's verified destination.
func (p *ChunkPool) readRunVectored(fd uintptr, r *fetchRun, jobs []chunkJob, fs *FetchStats, bdgt *byteBudget) error {
	granted := bdgt.acquire(int64(r.scratch))
	defer bdgt.release(granted)
	scratch := ckptfmt.Shared.Get(r.scratch)
	defer ckptfmt.Shared.Put(scratch)

	iovs := make([][]byte, 0, 2*len(r.members)+1)
	recAt := make([]int, len(r.members)) // scratch offset of each record's first byte
	pos, sOff, seg := r.start, 0, 0
	for k, ji := range r.members {
		j := &jobs[ji]
		if j.loc.Off < pos { // the previous member's record again: no bytes of its own
			recAt[k] = recAt[k-1]
			continue
		}
		sOff += int(j.loc.Off - pos)
		recAt[k] = sOff
		if ov := rawOverhead(j); ov >= 0 {
			sOff += ov - 4
			iovs = append(iovs, scratch[seg:sOff], j.dst)
			seg = sOff
			sOff += 4
		} else {
			sOff += j.loc.EncLen
		}
		pos = j.loc.Off + int64(j.loc.EncLen)
	}
	iovs = append(iovs, scratch[seg:sOff])
	if err := preadvFull(fd, iovs, r.start); err != nil {
		return r.readErr(err)
	}

	var scB, scN, raB, raN int64
	for k, ji := range r.members {
		j := &jobs[ji]
		rec := scratch[recAt[k]:]
		ov := rawOverhead(j)
		var first *chunkJob // the member whose record j repeats, if any
		if k > 0 && recAt[k] == recAt[k-1] {
			first = &jobs[r.members[k-1]]
		}
		ok := true
		switch {
		case first != nil && j.ref != first.ref:
			ok = false // the directory disagrees with itself about one record: let a full decode judge
		case ov < 0:
			if err := r.decodeRecord(rec[:j.loc.EncLen], j); err != nil {
				return err
			}
			raB, raN = raB+int64(j.loc.EncLen), raN+1
			continue
		case first != nil:
			copy(j.dst, first.dst) // checked against this same ref when first was decoded
		default:
			var hash ckptfmt.Hash
			var err error
			if hash, ok, err = ckptfmt.DecodeGatheredRaw(rec[:ov-4], j.dst, rec[ov-4:ov]); err != nil {
				return fmt.Errorf("store: shard %s frame at %d: %w", r.obj, j.loc.Off, err)
			}
			if ok {
				if err := r.checkHash(j, hash); err != nil {
					return err
				}
			}
		}
		if !ok {
			one := fetchRun{pf: r.pf, obj: r.obj, start: j.loc.Off, end: j.loc.Off + int64(j.loc.EncLen), members: []int{ji}}
			if err := p.readRunStaged(&one, jobs, fs, nil); err != nil {
				return err
			}
			continue
		}
		scB, scN = scB+int64(j.loc.EncLen), scN+1
	}
	if scN > 0 {
		p.countFetch(tierScatter, scB, scN, fs)
	}
	if raN > 0 {
		p.countFetch(tierRanged, raB, raN, fs)
	}
	return nil
}

// readRunStaged reads a run with one ReadAt into an arena span and decodes
// every member out of it. When the reader attributes its bytes (a remote
// object behind a cache tier), the run's encoded frame bytes — not the raw
// span bytes, which include coalescing gaps — are split across the
// "cache-tier", "singleflight" and "remote" tiers in proportion to where the
// reader got the span from, so per-tier byte sums still reproduce the
// restore's encoded volume. Readers that attribute nothing count as ranged.
func (p *ChunkPool) readRunStaged(r *fetchRun, jobs []chunkJob, fs *FetchStats, bdgt *byteBudget) error {
	granted := bdgt.acquire(r.end - r.start)
	defer bdgt.release(granted)
	buf := ckptfmt.Shared.Get(int(r.end - r.start))
	defer ckptfmt.Shared.Put(buf)

	var n int
	var cached, fetched, shared int64
	var err error
	tr, tiered := r.pf.(TieredReader)
	if tiered {
		n, cached, fetched, shared, err = tr.ReadAtTier(buf, r.start)
	} else {
		n, err = r.pf.ReadAt(buf, r.start)
	}
	if n < len(buf) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return r.readErr(err)
	}

	var encB int64
	for _, ji := range r.members {
		j := &jobs[ji]
		if err := r.decodeRecord(buf[j.loc.Off-r.start:][:j.loc.EncLen], j); err != nil {
			return err
		}
		encB += int64(j.loc.EncLen)
	}
	frames := int64(len(r.members))
	total := cached + fetched + shared
	switch {
	case !tiered:
		p.countFetch(tierRanged, encB, frames, fs)
	case total <= 0:
		p.countFetch(tierCacheTier, encB, frames, fs)
	default:
		cb, cf := encB*cached/total, frames*cached/total
		sb, sf := encB*shared/total, frames*shared/total
		if cb > 0 || cf > 0 {
			p.countFetch(tierCacheTier, cb, cf, fs)
		}
		if sb > 0 || sf > 0 {
			p.countFetch(tierSingleflight, sb, sf, fs)
		}
		p.countFetch(tierRemote, encB-cb-sb, frames-cf-sf, fs)
	}
	return nil
}
