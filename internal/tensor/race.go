//go:build race

package tensor

// A race build fills every buffer Release recycles with NaN before a pool
// takes it: a tensor that read a recycled buffer's stale values before
// overwriting them would compute with NaN, and a replay's logs would differ
// from the record's.
const poisonReleased = true
