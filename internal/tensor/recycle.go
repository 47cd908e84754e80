package tensor

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// pools recycles the buffers of released pending tensors, one sync.Pool per
// length. The map is copied on write: a birth looks its length up with one
// atomic load and no lock, and a length is added once per process.
var (
	pools   atomic.Pointer[map[int]*sync.Pool]
	poolsMu sync.Mutex
)

// poolFor returns the pool of buffers of length n, making it when add is
// set; nil when there is none.
func poolFor(n int, add bool) *sync.Pool {
	if m := pools.Load(); m != nil {
		if p := (*m)[n]; p != nil {
			return p
		}
	}
	if !add {
		return nil
	}
	poolsMu.Lock()
	defer poolsMu.Unlock()
	old := pools.Load()
	if old != nil && (*old)[n] != nil {
		return (*old)[n]
	}
	m := make(map[int]*sync.Pool, 1)
	if old != nil {
		for k, v := range *old {
			m[k] = v
		}
	}
	p := new(sync.Pool)
	m[n] = p
	pools.Store(&m)
	return p
}

// poisonBirths makes every pending tensor start on a buffer full of NaN
// (PoisonPendingBuffers).
var poisonBirths atomic.Bool

// pendingBuf returns a buffer of n values for a tensor born pending: a
// recycled one when a pool has one, else a fresh one. What it holds is never
// read: the pending draw writes every value, or an overwrite does first.
func pendingBuf(n int) []float64 {
	var buf []float64
	if p := poolFor(n, false); p != nil {
		if e, _ := p.Get().(*float64); e != nil {
			buf = unsafe.Slice(e, n)
		}
	}
	if buf == nil {
		buf = make([]float64, n)
	}
	if poisonBirths.Load() {
		poison(buf)
	}
	return buf
}

// recycle hands buf to its length's pool. A pool holds the address of the
// first value, which keeps the whole buffer alive, so a Put allocates
// nothing. Race builds poison the buffer first.
func recycle(buf []float64) {
	if len(buf) == 0 {
		return
	}
	if poisonReleased {
		poison(buf)
	}
	poolFor(len(buf), true).Put(unsafe.SliceData(buf))
}

func poison(buf []float64) {
	nan := math.NaN()
	for i := range buf {
		buf[i] = nan
	}
}

// PoisonPendingBuffers makes every Uniform and XavierUniform tensor born
// until restore is called start on a buffer full of NaN, as if a recycled
// buffer had come back poisoned: a test that replays under it shows that no
// stale value of a recycled buffer is ever read.
func PoisonPendingBuffers() (restore func()) {
	was := poisonBirths.Swap(true)
	return func() { poisonBirths.Store(was) }
}

// released is the pend of a tensor whose buffer went back to a pool: every
// access to it reaches draw or Overwrite, which panic.
var released = &pending{}

// errReleased is the panic of an access to a released tensor.
const errReleased = "tensor: access to a tensor whose buffer was released (tensor.Release)"

// births stamps every pending tensor at birth, so a Claims knows which were
// born after it.
var births atomic.Uint64

// Claims is the set of pending tensors one owner — a replay worker's program
// — may give back with Release. NewClaims marks the moment; Claim takes a
// tensor only when it was born pending after that mark, is pending still,
// and no other Claims took it first. A tensor two owners claim is shared,
// and neither releases it.
type Claims struct {
	since uint64
	held  []claim
}

type claim struct {
	t *Tensor
	p *pending
}

// shared is the owner of a tensor claimed by two Claims.
var shared = &Claims{}

// NewClaims returns an empty set that claims tensors born from now on.
func NewClaims() *Claims { return &Claims{since: births.Load()} }

// Claim adds t to c if t is pending, was born after c was made, and no
// other Claims holds it; a tensor another Claims holds becomes shared. A
// tensor claimed twice by c (tied parameters) is held once.
func (c *Claims) Claim(t *Tensor) {
	p := t.pend.Load()
	if p == nil || p == released || p.born <= c.since {
		return
	}
	if p.owner.CompareAndSwap(nil, c) {
		c.held = append(c.held, claim{t, p})
		return
	}
	if p.owner.Load() != c {
		p.owner.Store(shared)
	}
}

// Release gives back the buffers of c's tensors whose pending draws an
// overwrite dropped — a restore's, in replay — and returns how many bytes
// it gave. Such a tensor's buffer holds only what that overwrite and later
// writes put there, and nothing born outside its owner's setup points at
// it. A drawn tensor keeps its buffer: its values may have been read and
// its memory shared (Reshape); so does one still pending. A released tensor
// panics on any later access (Data, At, an operation, Overwrite, Storage),
// so its owner must drop it and everything that holds it. Only replay calls
// Release, once every worker of a query has exited, on the programs the
// park does not keep.
func Release(c *Claims) int64 {
	var n int64
	for _, h := range c.held {
		if h.p.owner.Load() != c {
			continue
		}
		if h.t.pend.Load() != nil || h.p.drawn {
			continue
		}
		buf := h.t.buf
		h.t.pend.Store(released)
		h.t.buf = nil
		recycle(buf)
		n += 8 * int64(len(buf))
	}
	c.held = nil
	return n
}
