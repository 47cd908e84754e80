//go:build !amd64

package tensor

func haveAVX2() bool { return false }

// sumSquaresLanesAVX2 is never called: useAVX2 is false off amd64.
func sumSquaresLanesAVX2(l *[16]float64, x []float64) { sumSquaresLanes(l, x) }
