package bench

import (
	"fmt"
	"time"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/sched"
	"fluidicl/internal/sim"
)

// Span is one timed call into a layer, taken from outside the program.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Name   string `json:"name"`
	// Start and End are host seconds since the tracer was made.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Inclusive marks a span taken inside sim.Run: the call parks its
	// simulated process, so its host time includes every other simulated
	// process (device queues, schedulers) that ran meanwhile.
	Inclusive bool `json:"inclusive,omitempty"`
}

// Tracer keeps spans in memory until the run ends. The simulation runs one
// goroutine at a time and hands over through channels, so a single stack of
// open spans is enough.
type Tracer struct {
	t0    time.Time
	spans []Span
	open  []int
	inSim bool
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span under the innermost open one and returns its id. A nil
// tracer records nothing.
func (t *Tracer) Begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Inclusive: t.inSim})
	t.open = append(t.open, id)
	t.spans[id-1].Start = time.Since(t.t0).Seconds()
	return id
}

// End closes span id (and anything left open inside it) and returns its
// duration in seconds.
func (t *Tracer) End(id int) float64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top-1].End = now
		if top == id {
			break
		}
	}
	s := t.spans[id-1]
	return s.End - s.Start
}

// Time runs fn inside a span and returns the span's duration.
func (t *Tracer) Time(name string, fn func()) float64 {
	id := t.Begin(name)
	fn()
	return t.End(id)
}

// Total sums the durations of the spans called name that start at or after
// span `from` (0: all).
func (t *Tracer) Total(name string, from int) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name && s.ID >= from {
			sum += s.End - s.Start
		}
	}
	return sum
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span { return t.spans }

// Span names of the replica's calls into core; the per-layer metrics sum them.
const (
	spanNew        = "core.New"
	spanBuild      = "core.BuildProgram"
	spanKernel     = "core.CreateKernel"
	spanBuffer     = "core.CreateBuffer"
	spanSimRun     = "sim.Run"
	spanWrite      = "core.EnqueueWriteBuffer"
	spanEnqueue    = "core.EnqueueNDRangeKernel"
	spanRead       = "core.EnqueueReadBuffer"
	spanVerify     = "polybench.Verify"
	spanReplicaRun = "replica"
)

// Replica runs r the way sched.RunFluidiCL / sched.RunTopology do — it is
// the benchmark's copy of their host program on core's public API — with a
// span around every call into core, and verifies the outputs. The caller
// asserts it gives the simulated time and outputs the sched entry point does.
func Replica(t *Tracer, r CoopRun) (*sched.Result, error) {
	id := t.Begin(spanReplicaRun + " " + r.Name())
	defer t.End(id)
	if len(r.App.App.Variants) > 0 {
		return nil, fmt.Errorf("bench: replica of %s: CPU kernel variants are not replicated", r.Name())
	}
	var res *sched.Result
	var err error
	if r.Topo == Twin {
		res, err = replicaTwin(t, r.App.App)
	} else {
		var topo device.Topology
		if topo, err = device.ParseTopology(r.Topo); err == nil {
			res, err = replicaTopo(t, topo, r.App.App)
		}
	}
	if err != nil {
		return nil, err
	}
	v := t.Begin(spanVerify)
	err = r.App.Verify(res.Outputs)
	t.End(v)
	return res, err
}

func inputOrZero(app *sched.App, name string) []byte {
	if data := app.Inputs[name]; data != nil {
		return data
	}
	return make([]byte, app.Buffers[name])
}

// coreArgs converts launch arguments, with buf mapping a buffer name.
func coreArgs(l sched.Launch, buf func(name string) core.Arg) []core.Arg {
	args := make([]core.Arg, len(l.Args))
	for i, a := range l.Args {
		switch a.Kind {
		case sched.ArgBuf:
			args[i] = buf(a.Name)
		case sched.ArgInt:
			args[i] = core.IntArg(a.I)
		default:
			args[i] = core.FloatArg(a.F)
		}
	}
	return args
}

func replicaTwin(t *Tracer, app *sched.App) (*sched.Result, error) {
	env := sim.NewEnv()
	m := sched.DefaultMachine()
	id := t.Begin(spanNew)
	rt, err := core.New(env, device.New(env, m.CPU), device.New(env, m.GPU), core.Options{})
	t.End(id)
	if err != nil {
		return nil, err
	}
	id = t.Begin(spanBuild)
	prog, err := rt.BuildProgram(app.Source)
	t.End(id)
	if err != nil {
		return nil, err
	}
	kernels := map[string]*core.Kernel{}
	for _, l := range app.Launches {
		if kernels[l.Kernel] != nil {
			continue
		}
		id = t.Begin(spanKernel)
		k, err := prog.CreateKernel(l.Kernel)
		t.End(id)
		if err != nil {
			return nil, err
		}
		kernels[l.Kernel] = k
	}
	names := sortedKeys(app.Buffers)
	bufs := map[string]*core.Buffer{}
	for _, name := range names {
		id = t.Begin(spanBuffer)
		bufs[name] = rt.CreateBuffer(app.Buffers[name])
		t.End(id)
	}
	res := &sched.Result{Outputs: map[string][]byte{}}
	var runErr error
	env.Go("app", func(p *sim.Proc) {
		start := p.Now()
		for _, name := range names {
			id := t.Begin(spanWrite)
			rt.EnqueueWriteBuffer(p, bufs[name], inputOrZero(app, name))
			t.End(id)
		}
		for _, l := range app.Launches {
			args := coreArgs(l, func(name string) core.Arg { return core.BufArg(bufs[name]) })
			id := t.Begin(spanEnqueue)
			runErr = rt.EnqueueNDRangeKernel(p, kernels[l.Kernel], l.ND, args)
			t.End(id)
			if runErr != nil {
				return
			}
		}
		for _, name := range app.Outputs {
			id := t.Begin(spanRead)
			res.Outputs[name] = rt.EnqueueReadBuffer(p, bufs[name])
			t.End(id)
		}
		res.Time = p.Now() - start
	})
	t.runSim(env)
	if runErr == nil {
		runErr = rt.Err()
	}
	if runErr != nil {
		return nil, runErr
	}
	res.Reports, res.Counters, res.Summary = rt.Reports, rt.Counters(), env.Meter.Summary()
	return res, nil
}

func replicaTopo(t *Tracer, topo device.Topology, app *sched.App) (*sched.Result, error) {
	if _, _, ok := topo.Pair(); ok {
		// sched.RunTopology runs a plain pair on the twin protocol.
		return nil, fmt.Errorf("bench: topology %q is a plain pair: run it as Twin", topo.String())
	}
	env := sim.NewEnv()
	id := t.Begin(spanNew)
	rt, err := core.NewTopo(env, topo.Build(env), core.Options{})
	t.End(id)
	if err != nil {
		return nil, err
	}
	id = t.Begin(spanBuild)
	prog, err := rt.BuildProgram(app.Source)
	t.End(id)
	if err != nil {
		return nil, err
	}
	kernels := map[string]*core.TopoKernel{}
	for _, l := range app.Launches {
		if kernels[l.Kernel] != nil {
			continue
		}
		id = t.Begin(spanKernel)
		k, err := prog.CreateKernel(l.Kernel)
		t.End(id)
		if err != nil {
			return nil, err
		}
		kernels[l.Kernel] = k
	}
	names := sortedKeys(app.Buffers)
	bufs := map[string]*core.TopoBuffer{}
	for _, name := range names {
		id = t.Begin(spanBuffer)
		bufs[name] = rt.CreateBuffer(app.Buffers[name])
		t.End(id)
	}
	res := &sched.Result{Outputs: map[string][]byte{}}
	var runErr error
	env.Go("app", func(p *sim.Proc) {
		start := p.Now()
		for _, name := range names {
			id := t.Begin(spanWrite)
			rt.EnqueueWriteBuffer(p, bufs[name], inputOrZero(app, name))
			t.End(id)
		}
		for _, l := range app.Launches {
			args := coreArgs(l, func(name string) core.Arg { return core.TopoBufArg(bufs[name]) })
			id := t.Begin(spanEnqueue)
			runErr = rt.EnqueueNDRangeKernel(p, kernels[l.Kernel], l.ND, args)
			t.End(id)
			if runErr != nil {
				return
			}
		}
		rt.Finish(p)
		for _, name := range app.Outputs {
			id := t.Begin(spanRead)
			res.Outputs[name] = rt.EnqueueReadBuffer(p, bufs[name])
			t.End(id)
		}
		res.Time = p.Now() - start
	})
	t.runSim(env)
	if runErr == nil {
		runErr = rt.Err()
	}
	if runErr != nil {
		return nil, runErr
	}
	res.Reports, res.Counters, res.Summary = rt.Reports, rt.Counters(), env.Meter.Summary()
	return res, nil
}

// runSim runs the simulation inside a span; spans opened meanwhile are
// marked inclusive.
func (t *Tracer) runSim(env *sim.Env) {
	id := t.Begin(spanSimRun)
	t.inSim = true
	env.Run()
	t.inSim = false
	t.End(id)
}
