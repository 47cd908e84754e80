package store

// fetch.go is the restore read path: one planner that cuts a restore's chunk
// jobs into bounded runs, and one executor that reads each run with a single
// call and decodes its frames the moment the bytes land. Every restore goes
// through it, whatever the backend.
//
// How a run's bytes are obtained depends only on what the opened pack reader
// exposes:
//
//   - a file descriptor (local packs on Linux): one vectored preadv whose
//     large raw payloads land straight in their destination pieces;
//   - an ExtentReader (remote objects): the run's exact extent, lent by the
//     reader — resident in the cache tier or a fresh ranged GET — and
//     decoded where it lies;
//   - anything else (wrapped backends, other platforms): one ReadAt of the
//     run into an arena span.
//
// The strategies are byte-identical by construction: all decode the same
// records into the same destinations and check the same CRCs and content
// hashes. A destination is a list of pieces — one section buffer's slice, or
// the slices of live tensors and structure scratch a caller laid the section
// over (Checkpoint.ReadInto) — and every strategy fills it in order.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
)

// chunkJob is one frame to fetch and decode while materializing sections.
type chunkJob struct {
	dst [][]byte // decode destination: pieces tiling the frame's raw bytes, in order
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
// kernel copy into the destination pieces, then a checksum over the hot copy.
// Below the threshold the extra vector entries stop amortizing and the whole
// record is staged.
const directReadMin = 64 << 10

// Run bounds. A run is read by one call, so its vector entries are capped by
// IOV_MAX (a direct frame takes one for the scratch before it and one per
// destination piece; a frame with more pieces than fit is staged whole), the
// scratch it may burn on gaps, frame overhead and staged records is bounded,
// and so is its direct payload: each run is checksummed right after its
// read, so a cache-sized batch keeps the verify pass streaming bytes the
// kernel copy just made hot.
const (
	iovMax        = 1024 // IOV_MAX: vector length limit of one preadv call
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
	iovs       int   // vector entries a vectored read of the run takes
}

// rawOverhead returns the header+trailer byte count j's record carries around
// its payload if it is the plain raw frame its directory ref implies, large
// enough to be worth splitting, and its pieces fit one vectored read; or -1
// when the record is staged whole.
func rawOverhead(j *chunkJob) int {
	ov := j.loc.EncLen - j.ref.RawLen
	// A canonical raw header is 1 style byte, two equal uvarints (at least
	// one byte each), and the 16-byte hash; plus the 4-byte trailer.
	if j.loc.EncLen < directReadMin || ov < 1+1+1+16+4 || ov > 1+2*binary.MaxVarintLen64+16+4 || len(j.dst)+2 > iovMax {
		return -1
	}
	return ov
}

// planRuns offset-sorts the jobs — large, small and compressed together —
// and cuts them into runs within the bounds above. Records never
// partially overlap (a pack is append-only), so a job that starts before the
// current run's end wants the run's last record again (zero-initialised
// tensors, repeated blocks): it joins the run and is decoded from the bytes
// already planned, so a deduplicated record is read once however often it is
// referenced.
func planRuns(pf BackendReader, obj string, jobs []chunkJob) []fetchRun {
	sorted := make([]int, len(jobs))
	for i := range sorted {
		sorted[i] = i
	}
	sort.Slice(sorted, func(a, b int) bool { return jobs[sorted[a]].loc.Off < jobs[sorted[b]].loc.Off })
	var runs []fetchRun
	var cur *fetchRun
	payload := 0
	for k, ji := range sorted {
		j := &jobs[ji]
		if cur != nil && j.loc.Off < cur.end {
			cur.members = cur.members[:len(cur.members)+1]
			continue
		}
		scratch, direct, iovs := j.loc.EncLen, 0, 0
		if ov := rawOverhead(j); ov >= 0 {
			scratch, direct, iovs = ov, j.ref.RawLen, 1+len(j.dst)
		}
		if cur != nil {
			gap := j.loc.Off - cur.end
			if gap > maxCoalesceGap || cur.iovs+iovs > iovMax ||
				cur.scratch+int(gap)+scratch > maxRunScratch || payload+direct > maxRunPayload {
				cur = nil
			} else {
				cur.scratch += int(gap)
			}
		}
		if cur == nil {
			runs = append(runs, fetchRun{pf: pf, obj: obj, start: j.loc.Off, members: sorted[k:k], iovs: 1})
			cur, payload = &runs[len(runs)-1], 0
		}
		cur.members = cur.members[:len(cur.members)+1] // a run is a window of sorted
		cur.scratch += scratch
		cur.iovs += iovs
		payload += direct
		cur.end = j.loc.Off + int64(j.loc.EncLen)
	}
	return runs
}

// fetch reads and decodes every job into its destination buffer: the whole
// restore below chunk-location resolution. It opens the pack, plans the
// runs, and reads them on up to fetchWorkers workers, handing out no run
// after the first error. The jobs share a generation (their locations were
// resolved atomically under the index lock). A missing pack object surfaces
// ErrStalePack: the generation was compacted away and deleted after its
// grace period, so the caller's resolved locations are stale, not corrupt.
func (p *ChunkPool) fetch(jobs []chunkJob, fs *FetchStats) error {
	if len(jobs) == 0 {
		return nil
	}
	obj := packObjName(packFile, jobs[0].loc.Gen)
	pf, err := p.backend.Open(obj)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("%w: pack %s: %v", ErrStalePack, obj, err)
	case err != nil:
		return fmt.Errorf("store: pack %s: open: %w", obj, err)
	}
	defer pf.Close()
	runs := planRuns(pf, obj, jobs)

	bdgt := newByteBudget(restoreInflightBudget)
	read := func(r *fetchRun) error {
		if fd, ok := packFd(r.pf); ok {
			return p.readRunVectored(fd, r, jobs, fs, bdgt)
		}
		return p.readRunStaged(r, jobs, fs, bdgt)
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(runs) {
				return
			}
			if err := read(&runs[i]); err != nil {
				errOnce.Do(func() { firstErr = err })
				failed.Store(true)
				return
			}
		}
	}
	if width := min(fetchWorkers(), len(runs)); width <= 1 {
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
	return firstErr
}

// readErr wraps a failed run read. A vanished object is a stale index; a pack
// shorter than its committed records claim is corruption; any other cause is
// wrapped (%w) so typed backend errors — retry budgets exhausted, injected
// test faults — stay visible to errors.Is.
func (r *fetchRun) readErr(err error) error {
	switch {
	case errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("%w: pack %s: %v", ErrStalePack, r.obj, err)
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("%w: pack %s: read [%d,%d): %v", codec.ErrCorrupt, r.obj, r.start, r.end, err)
	}
	return fmt.Errorf("store: pack %s: read [%d,%d): %w", r.obj, r.start, r.end, err)
}

// decodeRecord decodes one staged frame record into j's destination pieces
// and checks it holds the content the directory asked for. The CRC covers
// the whole frame and the directory pins the content hash, so the decode
// skips the redundant hash recompute: deterministic decoding of CRC-clean
// bytes into the checked hash's frame cannot diverge.
func (r *fetchRun) decodeRecord(rec []byte, j *chunkJob) error {
	frame, err := ckptfmt.ParseDecodeScatter(rec, j.dst)
	if err != nil {
		return fmt.Errorf("store: pack %s frame at %d: %w", r.obj, j.loc.Off, err)
	}
	return r.checkHash(j, frame.Hash)
}

func (r *fetchRun) checkHash(j *chunkJob, got ckptfmt.Hash) error {
	if got != j.ref.Hash {
		return fmt.Errorf("%w: pack %s frame at %d holds %s, directory wants %s",
			codec.ErrCorrupt, r.obj, j.loc.Off, got, j.ref.Hash)
	}
	return nil
}

// vecScratch is what a vectored run read keeps beside its arena span: the
// run's vector and each record's scratch offset. A restore reads many runs,
// so these are pooled and a steady-state run read allocates neither.
type vecScratch struct {
	iov   iovecs
	recAt []int
}

var vecScratches = sync.Pool{New: func() any { return new(vecScratch) }}

// put returns vs to its pool, dropping the vector's pointers into the run's
// destinations first.
func (vs *vecScratch) put() {
	clear(vs.iov)
	vs.iov = vs.iov[:0]
	vecScratches.Put(vs)
}

// readRunVectored reads a run with one vectored pread. The payload of every
// record planned as a large raw frame lands straight in its destination
// pieces; everything between payloads — gaps, headers, trailers, whole small
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

	vs := vecScratches.Get().(*vecScratch)
	defer vs.put()
	recAt := slices.Grow(vs.recAt[:0], len(r.members))[:len(r.members)] // scratch offset of each record's first byte
	vs.recAt = recAt
	iovs := &vs.iov
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
			iovs.add(scratch[seg:sOff])
			for _, d := range j.dst {
				iovs.add(d)
			}
			seg = sOff
			sOff += 4
		} else {
			sOff += j.loc.EncLen
		}
		pos = j.loc.Off + int64(j.loc.EncLen)
	}
	iovs.add(scratch[seg:sOff])
	if err := iovs.readFull(fd, r.start); err != nil {
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
			copyPieces(j.dst, first.dst) // checked against this same ref when first was decoded
		default:
			var hash ckptfmt.Hash
			var err error
			if hash, ok, err = ckptfmt.DecodeGatheredRaw(rec[:ov-4], j.dst, rec[ov-4:ov]); err != nil {
				return fmt.Errorf("store: pack %s frame at %d: %w", r.obj, j.loc.Off, err)
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

// readRunStaged obtains a run's bytes with one call and decodes every member
// out of them. An ExtentReader (a remote object, behind a cache tier or not)
// lends the run's exact extent, which is decoded where it lies, released
// once the decode loop is done, and whose encoded frame bytes all count to
// the one tier that served it. Any other reader is read with ReadAt into an
// arena span, counted as ranged. Either way the decode only copies out of
// the bytes, so nothing that outlives this call views them.
func (p *ChunkPool) readRunStaged(r *fetchRun, jobs []chunkJob, fs *FetchStats, bdgt *byteBudget) error {
	granted := bdgt.acquire(r.end - r.start)
	defer bdgt.release(granted)

	var buf []byte
	var err error
	tier := tierRanged
	if er, ok := r.pf.(ExtentReader); ok {
		var release func()
		var t ExtentTier
		buf, release, t, err = er.ReadExtent(r.start, r.end-r.start)
		if err == nil {
			defer release()
		}
		tier = int(t)
	} else {
		buf = ckptfmt.Shared.Get(int(r.end - r.start))
		defer ckptfmt.Shared.Put(buf)
		var n int
		if n, err = r.pf.ReadAt(buf, r.start); n == len(buf) {
			err = nil // io.EOF at the object's very end still filled the run
		} else if err == nil {
			err = io.ErrUnexpectedEOF
		}
	}
	if err == nil && int64(len(buf)) != r.end-r.start {
		err = io.ErrUnexpectedEOF // an extent of the wrong length
	}
	if err != nil {
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
	p.countFetch(tier, encB, int64(len(r.members)), fs)
	return nil
}

// copyPieces copies one piece list onto another of the same total length;
// the two may be cut at different points.
func copyPieces(dst, src [][]byte) {
	var cur []byte
	for _, d := range dst {
		for len(d) > 0 {
			for len(cur) == 0 {
				cur, src = src[0], src[1:]
			}
			n := copy(d, cur)
			d, cur = d[n:], cur[n:]
		}
	}
}
