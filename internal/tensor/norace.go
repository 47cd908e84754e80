//go:build !race

package tensor

// poisonReleased is off outside race builds: see race.go.
const poisonReleased = false
