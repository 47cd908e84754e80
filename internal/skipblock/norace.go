//go:build !race

package skipblock

// guardViews is off outside race builds: see race.go.
const guardViews = false
