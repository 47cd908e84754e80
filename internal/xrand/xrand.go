// Package xrand provides a deterministic, serializable pseudo-random number
// generator used throughout the training stack.
//
// Flor's replay correctness depends on every source of randomness being
// captured and restorable: a loop execution replayed from a checkpoint must
// consume exactly the random stream it consumed on record. The standard
// library generators do not expose their internal state, so we implement
// PCG-XSH-RR 64/32 (O'Neill, 2014) with explicit state capture.
//
// A generator can also jump: Advance(n) moves it to where n single steps
// would, in O(log n) multiplications (Brown, "Random Number Generation with
// Arbitrary Strides", 1994; O'Neill's pcg_advance). Uint32 is one step, and
// Uint64 and Float64 are two, so a caller that knows how many values a
// fixed-count draw takes can skip it and draw it later from a copy of the
// generator (tensor's pending initializers do).
package xrand

import (
	"encoding/binary"
	"fmt"
	"math"
)

const (
	pcgMult = 6364136223846793005
	pcgInc  = 1442695040888963407
)

// RNG is a PCG-XSH-RR 64/32 generator. The zero value is not valid; use New.
type RNG struct {
	state uint64
	inc   uint64
}

// New returns a generator seeded from seed. Two generators created with the
// same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{inc: pcgInc}
	r.state = 0
	r.step()
	r.state += seed
	r.step()
	return r
}

// NewStream returns a generator whose stream is derived from seed and a
// stream identifier, so independent components (data shuffling, dropout,
// weight init) can draw from non-overlapping streams.
func NewStream(seed, stream uint64) *RNG {
	r := &RNG{inc: (stream << 1) | 1}
	r.state = 0
	r.step()
	r.state += seed
	r.step()
	return r
}

func (r *RNG) step() {
	r.state = r.state*pcgMult + r.inc
}

// Advance moves the generator n steps ahead, exactly as n calls to step
// would, in O(log n) time. The step is the affine map s ↦ a·s + c mod 2^64;
// its n-fold composition is s ↦ A·s + C, and A and C are built from the
// binary digits of n by repeated squaring of (a, c). The map has period
// 2^64, so n counts modulo 2^64: Advance(a) then Advance(b) is Advance(a+b)
// even where a+b wraps.
func (r *RNG) Advance(n uint64) {
	accMult, accPlus := uint64(1), uint64(0)
	curMult, curPlus := uint64(pcgMult), r.inc
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			accMult *= curMult
			accPlus = accPlus*curMult + curPlus
		}
		curPlus = (curMult + 1) * curPlus
		curMult *= curMult
	}
	r.state = accMult*r.state + accPlus
}

// Uint32 returns the next 32 bits of the stream.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.step()
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 bits of the stream.
func (r *RNG) Uint64() uint64 {
	hi := uint64(r.Uint32())
	lo := uint64(r.Uint32())
	return hi<<32 | lo
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("xrand: Intn(%d): n must be positive", n))
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint32(n)
	for {
		v := r.Uint32()
		prod := uint64(v) * uint64(bound)
		low := uint32(prod)
		if low >= bound || low >= (-bound)%bound {
			return int(prod >> 32)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate via the polar Box-Muller
// method (deterministic, no cached spare so state capture stays trivial).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n) via Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n indices using swap, via Fisher-Yates.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// State captures the generator's full internal state.
func (r *RNG) State() [16]byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], r.state)
	binary.LittleEndian.PutUint64(b[8:16], r.inc)
	return b
}

// SetState restores a state previously captured by State.
func (r *RNG) SetState(b [16]byte) {
	r.state = binary.LittleEndian.Uint64(b[0:8])
	r.inc = binary.LittleEndian.Uint64(b[8:16])
}

// Clone returns an independent generator at the same stream position.
func (r *RNG) Clone() *RNG {
	return &RNG{state: r.state, inc: r.inc}
}

// Equal reports whether two generators are at identical states.
func (r *RNG) Equal(o *RNG) bool {
	return o != nil && r.state == o.state && r.inc == o.inc
}
