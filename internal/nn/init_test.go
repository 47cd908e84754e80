package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"flor.dev/flor/internal/xrand"
)

// paramHash is a SHA-256 over every parameter of m in order — its name, its
// shape and the IEEE-754 bits of each element — followed by the next draw
// of rng, the generator m was built from: a constructor that draws one
// value more or fewer changes the hash as surely as one that draws them
// into other places.
func paramHash(m Module, rng *xrand.RNG) string {
	h := sha256.New()
	var word [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(word[:], u)
		h.Write(word[:])
	}
	for _, p := range m.Params() {
		h.Write([]byte(p.Name))
		put(uint64(p.Var.Value.Dims()))
		for _, d := range p.Var.Value.Shape() {
			put(uint64(d))
		}
		for _, v := range p.Var.Value.Data() {
			put(math.Float64bits(v))
		}
	}
	put(rng.Uint64())
	return hex.EncodeToString(h.Sum(nil))
}

// TestInitializersGolden pins every parameter the Xavier-initialized models
// draw, bit for bit, at fixed seeds: the weights a replay worker builds
// must be the ones the recorded run built, or a restore that skips a loop
// would resume from a state the program never had. The constants were
// computed when the initializer still drew a (fanOut, fanIn) matrix and
// transposed it.
func TestInitializersGolden(t *testing.T) {
	cases := []struct {
		name  string
		build func(*xrand.RNG) Module
		seed  uint64
		want  string
	}{
		{"resmlp-sgdprog", func(r *xrand.RNG) Module { return NewResidualMLP(r, 32, 64, 64, 4, 10) }, 7,
			"b90ad59bd958c48e3a019534a700d18a9791821bfa5da45f825f327911e5d7ce"},
		{"resmlp-rsnt", func(r *xrand.RNG) Module { return NewResidualMLP(r, 64, 32, 32, 3, 20) }, 0x4E57,
			"8d99caa373d2f463789774ebd9d3bfecc74fb0ec0ffd012df5769bf51728616f"},
		{"resmlp-wide", func(r *xrand.RNG) Module { return NewResidualMLP(r, 16, 96, 48, 2, 7) }, 1,
			"f99c00001e6d3da7857efca26295bd18dda01d1092a82dbf7ee81253591bee57"},
		{"convnet-cifr", func(r *xrand.RNG) Module { return NewConvNet(r, 48, 4, 5, 4, 3, 10) }, 0xC1F4,
			"7cf5f8763d5f3a69140225dc2e053d5ba2e39e9dbcad55f04d54d56b55787e2e"},
		{"convnet-speech", func(r *xrand.RNG) Module { return NewConvNet(r, 64, 2, 5, 2, 3, 8) }, 0x1346,
			"63f4230eb95c50f1f8ad0613734871909cb45076568d37457bda246a4bbc45a2"},
		{"rnncell-square", func(r *xrand.RNG) Module { return NewRNNCell("cell", r, 12, 12) }, 3,
			"bc95d36b2cfe22611c6c924817d0ead5e711b5343313e9e4e89bb2ff09bd61d7"},
		{"rnncell-wide", func(r *xrand.RNG) Module { return NewRNNCell("cell", r, 20, 12) }, 0xBEEF,
			"9ec58f1878db4ca5bf301df8d7568731afa9627ddb74fd875137d29885e38ba0"},
		{"rnnattention", func(r *xrand.RNG) Module { return NewRNNAttention(r, 30, 8, 12) }, 5,
			"2857e64ac8f715487ab806a94bd1a3f228ec02affcff4d50d28098d3556a7807"},
	}
	for _, c := range cases {
		rng := xrand.New(c.seed)
		if got := paramHash(c.build(rng), rng); got != c.want {
			t.Errorf("%s at seed %#x: parameters hash to %s, want %s", c.name, c.seed, got, c.want)
		}
	}
}

// BenchmarkNewResidualMLP builds the model a query's fresh replay worker
// builds in the benchmark's query workloads: the setup a cold query pays.
func BenchmarkNewResidualMLP(b *testing.B) {
	b.ReportAllocs()
	rng := xrand.New(1)
	for b.Loop() {
		NewResidualMLP(rng, 32, 64, 64, 8, 10)
	}
}

// TestInitializerAllocatesItsParametersOnce is the allocation guard of a
// fresh worker's setup: building a layer or a model allocates its parameter
// bytes and at most perParamOverhead bytes per parameter besides — the
// tensor and autograd.Var headers, the shape, the name, the parameter's
// share of the lists that hold it and the allocator's size-class rounding.
// An initializer that draws a matrix and then transposes it allocates every
// weight twice.
func TestInitializerAllocatesItsParametersOnce(t *testing.T) {
	const perParamOverhead = 512
	cases := []struct {
		name  string
		build func(*xrand.RNG) Module
	}{
		{"linear 64x64", func(r *xrand.RNG) Module { return NewLinear("fc", r, 64, 64) }},
		{"linear 64x10", func(r *xrand.RNG) Module { return NewLinear("fc", r, 64, 10) }},
		{"residual MLP", func(r *xrand.RNG) Module { return NewResidualMLP(r, 32, 64, 64, 8, 10) }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range cases {
		m := c.build(xrand.New(1))
		params := len(m.Params())
		paramBytes := uint64(8 * NumParams(m))
		const runs = 20
		rngs := make([]*xrand.RNG, runs)
		for i := range rngs {
			rngs[i] = xrand.New(uint64(i))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range rngs {
			c.build(r)
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / runs
		if limit := paramBytes + perParamOverhead*uint64(params); got > limit {
			t.Errorf("%s allocates %d bytes for %d parameter bytes in %d parameters; at most %d allowed",
				c.name, got, paramBytes, params, limit)
		} else {
			t.Logf("%s allocates %d bytes for %d parameter bytes in %d parameters", c.name, got, paramBytes, params)
		}
	}
}
