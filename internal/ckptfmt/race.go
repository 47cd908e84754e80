//go:build race

package ckptfmt

// A race build fills every buffer released to an Arena with a fixed pattern
// before pooling it. A reader still decoding out of a span it (or anyone)
// released then reads the pattern, and the frame CRC, the chunk content hash
// or the replay oracle fails where an ordinary build would read bytes that
// are merely stale — and usually still right. The suites that restore
// through the store (store, skipblock, replay, serve, the root migration
// matrix) get the check whenever they run under -race.
func init() {
	poison = func(b []byte) {
		for i := range b {
			b[i] = 0xa5
		}
	}
}
