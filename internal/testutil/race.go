//go:build race

package testutil

// RaceEnabled reports whether the binary runs under the race detector,
// whose instrumentation allocates and slows tests: allocation gates
// skip under it, and long windows run only in a non-race CI step.
const RaceEnabled = true
