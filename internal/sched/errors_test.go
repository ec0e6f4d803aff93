package sched

import (
	"strings"
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
)

// TestEveryStrategyReportsLaunchError: a launch that stores out of range
// ends every strategy's run with no Result and the VM's error — on either
// single device, on both halves of a static split, under both SOCL policies
// and under both cooperative protocols.
func TestEveryStrategyReportsLaunchError(t *testing.T) {
	const n = 256
	m := DefaultMachine()
	topo, err := device.ParseTopology("2cpu+2gpu")
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(app *App) (*Result, error){
		"cpu":       func(app *App) (*Result, error) { return RunSingle(m.CPU, app) },
		"gpu":       func(app *App) (*Result, error) { return RunSingle(m.GPU, app) },
		"static50":  func(app *App) (*Result, error) { return RunStatic(m, app, 50) },
		"eager":     func(app *App) (*Result, error) { return RunSocl(m, app, Eager, nil) },
		"dmda":      func(app *App) (*Result, error) { return RunSocl(m, app, Dmda, DmdaModel{}) },
		"fluidicl":  func(app *App) (*Result, error) { return RunFluidiCL(m, app, core.Options{}) },
		"2cpu+2gpu": func(app *App) (*Result, error) { return RunTopology(topo, app, core.Options{}) },
	} {
		res, err := run(failingApp(n))
		if res != nil {
			t.Errorf("%s: a failed run returned a Result", name)
		}
		if err == nil || !strings.Contains(err.Error(), `kernel "oob"`) || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: error %v, want the VM's out-of-range store in oob", name, err)
		}
	}
}
