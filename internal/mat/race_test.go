//go:build race

package mat

// The race detector's instrumentation changes the operand order of Dot's
// and Axpy's compiled loops; see nanPayloadsPinned.
func init() { nanPayloadsPinned = false }
