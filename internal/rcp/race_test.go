//go:build race

package rcp

// Under the race detector sync.Pool drops a random share of what is put
// back, so allocation counts stop repeating; see TestFigure2AllocBudget.
func init() { raceDetector = true }
