package ckptfmt

import "sync"

// Arena recycles byte buffers across frame decodes and restore calls. The
// restore hot path used to allocate a fresh multi-megabyte staging buffer
// per shard fetch and per decompressed frame; for non-dedupable payloads
// (every chunk distinct, nothing skippable) that allocation churn is pure
// frame tax. An Arena turns those into pool round-trips: Get hands back a
// previously released buffer when one is large enough, and Put releases a
// buffer once nothing aliases it.
//
// The backing store is a sync.Pool, so buffers are effectively per-worker
// (per-P) without any explicit worker indexing, and the pool sheds memory
// under GC pressure instead of pinning high-water marks.
//
// Contract: a buffer handed to Put must not be referenced afterwards —
// callers that return decoded data to their own callers must either copy it
// out first or skip the Put. Get returns buffers with undefined contents.
type Arena struct {
	pool sync.Pool
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Shared is the process-wide arena the store threads its scratch through. The
// restore path stages span reads, frame headers and trailers, and small or
// compressed records here and releases each span the moment a run's frames
// are decoded; the write path stages a shard's fresh frames here for their
// one pack append and releases the span when the append returns. Section
// buffers never come from it or go to it: they belong to the restoring
// worker (or to the payload cache once it admits a payload viewing them) on
// the way in, and to the materializer on the way out.
var Shared = NewArena()

// Get returns a buffer of length n (capacity possibly larger). Contents are
// undefined.
func (a *Arena) Get(n int) []byte {
	if v := a.pool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this request; drop it rather than growing a pooled
		// buffer nobody may ever need this large again.
	}
	return make([]byte, n)
}

// Put releases a buffer back to the arena. Safe for concurrent use with Get.
func (a *Arena) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	a.pool.Put(&b)
}
