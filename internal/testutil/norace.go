//go:build !race

package testutil

// RaceEnabled reports whether the binary runs under the race detector
// (see race.go).
const RaceEnabled = false
