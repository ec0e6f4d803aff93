package sched

// Test-only exports for the external (sched_test) tests, which may import
// the packages that import sched.

// Input returns buffer name's initial contents as every strategy is handed
// them: the app's input, or a view of the shared zero slab.
func (a *App) Input(name string) []byte { return a.input(name) }
