package tensor

// HaveAVX2 reports whether this host can run the AVX2 kernel.
func HaveAVX2() bool { return haveAVX2() }

// SumSquaresOn returns SumSquares computed on the AVX2 kernel (avx2 true,
// only where HaveAVX2) or on the portable loop. Callers must not run it
// alongside other goroutines reading tensors.
func (t *Tensor) SumSquaresOn(avx2 bool) float64 {
	if avx2 && !haveAVX2() {
		panic("tensor: SumSquaresOn(true) on a host without AVX2")
	}
	was := useAVX2
	useAVX2 = avx2
	defer func() { useAVX2 = was }()
	return t.SumSquares()
}

// UsePortable switches SumSquares, and with it Norm and nn's norms, to the
// portable loop until the returned function restores the host's kernel.
// Callers must not run it alongside other goroutines reading tensors.
func UsePortable() (restore func()) {
	was := useAVX2
	useAVX2 = false
	return func() { useAVX2 = was }
}
