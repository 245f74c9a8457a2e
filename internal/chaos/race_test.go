//go:build race

package chaos

// Under the race detector sync.Pool drops a random share of what is put
// back, so allocation counts stop repeating; see TestRunAllocBudget.
func init() { raceDetector = true }
