package sched

import (
	"fluidicl/internal/core"
	"fluidicl/internal/device"
)

// Test-only exports for the external (sched_test) tests, which may import
// the packages that import sched.

// Input returns buffer name's initial contents as every strategy is handed
// them: the app's input, or a view of the shared zero slab.
func (a *App) Input(name string) []byte { return a.input(name) }

// Strategy is one way to run an app, named for test messages.
type Strategy struct {
	Name string
	Run  func(app *App) (*Result, error)
}

// EveryStrategy lists the baselines — each single device, a static split, a
// split under a Sweep and SOCL eager — and the cooperative runs on every
// topology shape: the twin's cpu+gpu and N-way's 2cpu+2gpu and 4gpu-bus.
func EveryStrategy() []Strategy {
	m := DefaultMachine()
	ss := []Strategy{
		{"single-cpu", func(app *App) (*Result, error) { return RunSingle(m.CPU, app) }},
		{"single-gpu", func(app *App) (*Result, error) { return RunSingle(m.GPU, app) }},
		{"static-50", func(app *App) (*Result, error) { return RunStatic(m, app, 50) }},
		{"sweep-30", func(app *App) (*Result, error) { return NewSweep(app).RunStatic(m, 30) }},
		{"socl-eager", func(app *App) (*Result, error) { return RunSocl(m, app, Eager, nil) }},
	}
	for _, spec := range []string{"cpu+gpu", "2cpu+2gpu", "4gpu-bus"} {
		topo := device.MustParseTopology(spec)
		ss = append(ss, Strategy{spec, func(app *App) (*Result, error) { return RunTopology(topo, app, core.Options{}) }})
	}
	return ss
}
