//go:build race

package store

// A race build takes no offered chunk hash on trust: every put re-hashes the
// chunks PutSectionsKnown was told to skip and fails on a mismatch. Go gives
// another package's tests no way to set putHook, and this is how the check
// reaches the suites that record through backmat from outside this package —
// backmat's own, core's, the root migration matrix — whenever they run under
// -race, as CI and the tier-1 gate run them.
func init() { putHook = verifyOffered }
