package harness

import (
	"sync"

	"fluidicl/internal/core"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
)

// cellMemo is a Runner's record of every simulation its table cells have
// asked for. Experiments overlap: fig13, fig16, table1 and the sweeps all
// want the same CPU-only, GPU-only and default FluidiCL runs, and OracleSP's
// 0 % and 100 % splits are those single-device runs again. Simulations are
// deterministic, so one run per distinct cell serves every table.
//
// The memo lives and dies with its Runner and is never process-wide: a fresh
// Runner simulates every cell again, so timing one (as bench/ does, one
// Runner per iteration) still times the work.
type cellMemo struct {
	mu      sync.Mutex
	cells   map[cellKey]*cellEntry
	benches map[benchKey]*polybench.Benchmark
	// sweeps holds one record per benchmark that its static splits, singles
	// and SOCL cells share, whatever the machine or experiment; SOCL cells
	// are not memoized, but their groups replay: a work-group's Stats and
	// stores do not depend on the device that runs it (sched.Sweep).
	sweeps map[*polybench.Benchmark]*sched.Sweep
	// counted holds the FluidiCL runs some table has counted (grid): a run
	// shared through the memo counts in the first table to claim it.
	counted sync.Map
}

// cellKey names one simulation. The benchmark is keyed by pointer, which
// Runner.bench makes unique per (name, size), so the same reference verifies
// the same outputs. Static splits cover the single-device runs: 0 % is
// CPU-only and 100 % GPU-only, as in sched.RunStatic.
type cellKey struct {
	b        *polybench.Benchmark
	m        sched.Machine
	fluidicl bool
	gpuPct   int          // static splits
	opts     core.Options // FluidiCL runs, as given
}

// cellEntry is one simulation, run once; concurrent cells that want it wait
// for that run. A failure is an entry too.
type cellEntry struct {
	once sync.Once
	res  *sched.Result
	err  error
}

// cell returns key's simulation, running and verifying it on first use. The
// result is shared and read-only, and it carries no Outputs: they were
// verified against the benchmark's reference when the entry was made.
func (r *Runner) cell(k cellKey) (*sched.Result, error) {
	r.memo.mu.Lock()
	e := r.memo.cells[k]
	if e == nil {
		if r.memo.cells == nil {
			r.memo.cells = map[cellKey]*cellEntry{}
		}
		e = &cellEntry{}
		r.memo.cells[k] = e
	}
	r.memo.mu.Unlock()
	e.once.Do(func() {
		var res *sched.Result
		var err error
		if k.fluidicl {
			res, err = sched.RunFluidiCL(k.m, k.b.App, k.opts)
		} else {
			res, err = r.sweep(k.b).RunStatic(k.m, k.gpuPct)
		}
		if res, err = verify(k.b, res, err); err != nil {
			e.err = err
			return
		}
		kept := *res
		kept.Outputs = nil
		e.res = &kept
	})
	return e.res, e.err
}

// sweep returns the record b's static splits share.
func (r *Runner) sweep(b *polybench.Benchmark) *sched.Sweep {
	r.memo.mu.Lock()
	defer r.memo.mu.Unlock()
	sw := r.memo.sweeps[b]
	if sw == nil {
		if r.memo.sweeps == nil {
			r.memo.sweeps = map[*polybench.Benchmark]*sched.Sweep{}
		}
		sw = sched.NewSweep(b.App)
		r.memo.sweeps[b] = sw
	}
	return sw
}

// static is b's run on machine m with gpuPct percent of every kernel's
// work-groups on the GPU (0: CPU-only, 100: GPU-only).
func (r *Runner) static(m sched.Machine, b *polybench.Benchmark, gpuPct int) (*sched.Result, error) {
	return r.cell(cellKey{b: b, m: m, gpuPct: gpuPct})
}

// benchKey names one benchmark instance. Every size the harness runs is
// square, so a name and one n identify it.
type benchKey struct {
	name string
	n    int
}

var benchCtors = map[string]func(n int) *polybench.Benchmark{
	"2MM":     func(n int) *polybench.Benchmark { return polybench.TwoMM(n, n, n) },
	"BICG":    polybench.Bicg,
	"CORR":    func(n int) *polybench.Benchmark { return polybench.Corr(n, n) },
	"GESUMMV": polybench.Gesummv,
	"SYRK":    func(n int) *polybench.Benchmark { return polybench.Syrk(n, n) },
	"SYR2K":   func(n int) *polybench.Benchmark { return polybench.Syr2k(n, n) },
}

// bench returns the Runner's one instance of the named benchmark at size n,
// built on first use: every experiment that runs it gets the same pointer
// and so the same memo entries.
func (r *Runner) bench(name string, n int) *polybench.Benchmark {
	r.memo.mu.Lock()
	defer r.memo.mu.Unlock()
	k := benchKey{name, n}
	b := r.memo.benches[k]
	if b == nil {
		if r.memo.benches == nil {
			r.memo.benches = map[benchKey]*polybench.Benchmark{}
		}
		b = benchCtors[name](n)
		r.memo.benches[k] = b
	}
	return b
}
