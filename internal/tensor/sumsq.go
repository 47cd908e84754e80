package tensor

// useAVX2 selects the AVX2 lane kernel. It is set once at init, true where
// the CPU has AVX2 and the OS saves YMM state (amd64 only); both kernels fill
// the same lanes, so it changes speed, never a bit of the result.
var useAVX2 = haveAVX2()

// sumSquares adds the squares of x in the sixteen-lane order the package
// comment states: one kernel fills the zeroed lanes from the whole blocks of
// 16, and the tail and the combine are shared, so both kernels give the same
// bits.
func sumSquares(x []float64) float64 {
	var l [16]float64
	m := len(x) - len(x)%16
	if m > 0 {
		if useAVX2 {
			sumSquaresLanesAVX2(&l, x[:m])
		} else {
			sumSquaresLanes(&l, x[:m])
		}
	}
	for i, v := range x[m:] {
		l[i] += float64(v * v)
	}
	s0, s1, s2, s3 := l[0]+l[8], l[1]+l[9], l[2]+l[10], l[3]+l[11]
	s4, s5, s6, s7 := l[4]+l[12], l[5]+l[13], l[6]+l[14], l[7]+l[15]
	return ((s0 + s4) + (s2 + s6)) + ((s1 + s5) + (s3 + s7))
}

// sumSquaresLanes is the portable kernel: it adds to lane j, zero on
// entry, the squares of x[j], x[j+16], x[j+32], … in index order; len(x) is
// a multiple of 16. The lanes stay in memory: sixteen accumulators and a
// square outnumber amd64's and 386's vector registers, and spilling a few
// of them costs more than keeping all sixteen in l.
func sumSquaresLanes(l *[16]float64, x []float64) {
	for ; len(x) >= 16; x = x[16:] {
		// float64(…) rounds each product on its own, so no target fuses it
		// into the add (Go spec, "Floating-point operators").
		l[0] += float64(x[0] * x[0])
		l[1] += float64(x[1] * x[1])
		l[2] += float64(x[2] * x[2])
		l[3] += float64(x[3] * x[3])
		l[4] += float64(x[4] * x[4])
		l[5] += float64(x[5] * x[5])
		l[6] += float64(x[6] * x[6])
		l[7] += float64(x[7] * x[7])
		l[8] += float64(x[8] * x[8])
		l[9] += float64(x[9] * x[9])
		l[10] += float64(x[10] * x[10])
		l[11] += float64(x[11] * x[11])
		l[12] += float64(x[12] * x[12])
		l[13] += float64(x[13] * x[13])
		l[14] += float64(x[14] * x[14])
		l[15] += float64(x[15] * x[15])
	}
}
