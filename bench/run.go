package bench

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fluidicl/internal/vm"
)

// Run design. A run is Procs fresh child processes, one after another; each
// sets up, does one untimed warm-up iteration, then times iterations for its
// share of the run's seconds, with calibration loops in between (corrector).
const (
	// RunSeconds is how long an untraced run measures for unless told
	// otherwise; BENCHMARK.json's run_seconds repeats it.
	RunSeconds = 15
	// Procs is how many child processes share a run: each contributes one
	// set-up sample and its own heap layout and address-space draw.
	Procs = 5
	// MinIters is the least timed iterations per child, whatever the budget.
	MinIters = 3
)

// ChildRecord is what one measuring child reports on its standard output.
type ChildRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// SetupRawS is process start to the first timed iteration, less the
	// calibration loops inside it; SetupS is the same, drift-corrected.
	SetupRawS float64 `json:"setup_raw_s"`
	SetupS    float64 `json:"setup_s"`
	// WallRawS / WallS are per timed iteration, raw and drift-corrected.
	WallRawS []float64 `json:"wall_raw_s"`
	WallS    []float64 `json:"wall_s"`
	CalibS   []float64 `json:"calib_s"`
	// AllocBytes is the Go heap allocated over the timed iterations.
	AllocBytes  uint64  `json:"alloc_bytes"`
	PeakRSSKB   int64   `json:"peak_rss_kb"`
	VirtMs      float64 `json:"virt_ms"`
	Sig         string  `json:"sig"`
	CoopSpeedup float64 `json:"coop_speedup"`
	Checks
}

// configureVM makes the process single-threaded in the VM and selects the
// workload's engine. GOMAXPROCS is left alone so the collector may use a
// second core.
func configureVM(w *Workload) {
	vm.SetWorkers(1)
	vm.SetBackend(w.Backend)
}

// corrector turns the raw durations of consecutive operations into
// drift-corrected seconds. Interference on this sandbox comes in bursts
// shorter than an iteration, so it calibrates inside iterations too: whenever
// calibEvery of measured time has passed since the last loop, it runs another
// and corrects the segment between the two by their mean.
type corrector struct {
	prev           float64 // last calibration loop, seconds
	pending        float64 // raw seconds measured since it
	raw, corrected float64 // closed segments since the last take
	calib          []float64
}

const (
	calibEvery = 0.12 // seconds of measured time between calibration loops
	calibSpike = 1.5  // a loop this much slower than the last one is repeated
)

func newCorrector() *corrector {
	c := &corrector{prev: Calibrate().Seconds()}
	c.calib = append(c.calib, c.prev)
	return c
}

func (c *corrector) add(d time.Duration) { c.addSeconds(d.Seconds()) }

func (c *corrector) addSeconds(s float64) {
	c.pending += s
	if c.pending >= calibEvery {
		c.flush()
	}
}

func (c *corrector) flush() {
	if c.pending == 0 {
		return
	}
	cur := Calibrate().Seconds()
	if cur > calibSpike*c.prev {
		// A loop that suddenly takes much longer was most likely descheduled
		// once, which says little about the segment before it; sustained
		// interference slows a second loop just as much.
		cur = min(cur, Calibrate().Seconds())
	}
	c.raw += c.pending
	c.corrected += Correct(c.pending, c.prev, cur)
	c.prev, c.pending = cur, 0
	c.calib = append(c.calib, cur)
}

// take closes the open segment and returns the raw and corrected seconds
// measured since the last take.
func (c *corrector) take() (raw, corrected float64) {
	c.flush()
	raw, corrected = c.raw, c.corrected
	c.raw, c.corrected = 0, 0
	return raw, corrected
}

// Measure is the body of a measuring child. start is the process start.
// speedup asks for coop_speedup as well, which costs two single-device runs
// per app after the timed iterations.
func Measure(start time.Time, w *Workload, seed uint64, budget time.Duration, speedup bool) ChildRecord {
	rec := ChildRecord{Workload: w.Name, Seed: seed}
	preMain := time.Since(start)
	cor := newCorrector()
	cor.add(preMain)
	configureVM(w)
	t0 := time.Now()
	in := w.Instance(seed)
	cor.add(time.Since(t0))
	warm := in.Iterate(&rec.Checks, cor.add)
	rec.SetupRawS, rec.SetupS = cor.take()
	rec.VirtMs = warm.VirtS * 1e3
	rec.Sig = hex.EncodeToString(warm.Sig[:])

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	last := warm
	loopStart := time.Now()
	for n := 0; n < MinIters || time.Since(loopStart) < budget; n++ {
		it := in.Iterate(&rec.Checks, cor.add)
		raw, corrected := cor.take()
		rec.WallRawS = append(rec.WallRawS, raw)
		rec.WallS = append(rec.WallS, corrected)
		if it.Sig != warm.Sig || it.VirtS != warm.VirtS {
			rec.fail("iteration %d: outputs or simulated time differ from the warm-up iteration", n)
		}
		last = it
	}
	runtime.ReadMemStats(&ms1)
	rec.CalibS = cor.calib
	rec.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	rec.PeakRSSKB = peakRSSKB()
	if speedup {
		rec.CoopSpeedup = in.CoopSpeedup(last.Results, &rec.Checks)
	}
	return rec
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSKB reads the process's resident-set high-water mark.
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line the driver reads: exactly these four keys.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// RunRecord is everything a run measured; the gated metrics are a summary of
// it. It is written next to the trace files for inspection.
type RunRecord struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Seconds  float64       `json:"seconds"`
	Samples  int           `json:"samples"`
	WallQ    [3]float64    `json:"wall_s_quartiles"`
	WallRawQ [3]float64    `json:"wall_raw_s_quartiles"`
	SetupRaw []float64     `json:"setup_raw_s"`
	Children []ChildRecord `json:"children"`
	Result   Result        `json:"result"`
}

// childEnv is the caller's environment without the program's own knobs, so a
// workload's "process default" is the built-in one.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "FLUIDICL_") {
			env = append(env, kv)
		}
	}
	return env
}

// runChild starts this binary again as a child, waits for it to end, and
// decodes its output, one JSON record, into out.
func runChild(out any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	data, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("child %v: decoding its record: %w", args, err)
	}
	return nil
}

// Run performs one untraced run: Procs children in sequence, each measuring
// for an equal share of seconds. It returns the end-to-end metrics.
func Run(w *Workload, seed uint64, seconds float64) (*RunRecord, error) {
	run := &RunRecord{Workload: w.Name, Seed: seed, Seconds: seconds}
	var chk Checks
	var wall, wallRaw, setup []float64
	var alloc uint64
	var peakKB []float64
	for p := 0; p < Procs; p++ {
		var rec ChildRecord
		err := runChild(&rec, "child", "--workload", w.Name,
			"--seed", strconv.FormatUint(seed, 10),
			"--budget", strconv.FormatFloat(seconds/Procs, 'g', -1, 64),
			"--speedup="+strconv.FormatBool(p == 0)) // exact and costly: one child computes it
		if err != nil {
			return nil, err
		}
		chk.add(rec.Checks)
		first := rec
		if p > 0 {
			first = run.Children[0]
		}
		if rec.Sig != first.Sig || rec.VirtMs != first.VirtMs {
			chk.fail("child %d: outputs or simulated time differ from child 0", p)
		}
		wall = append(wall, rec.WallS...)
		wallRaw = append(wallRaw, rec.WallRawS...)
		setup = append(setup, rec.SetupS)
		run.SetupRaw = append(run.SetupRaw, rec.SetupRawS)
		alloc += rec.AllocBytes
		peakKB = append(peakKB, float64(rec.PeakRSSKB))
		run.Children = append(run.Children, rec)
	}
	run.Samples = len(wall)
	run.WallQ[0], run.WallQ[1], run.WallQ[2] = Quartiles(wall)
	run.WallRawQ[0], run.WallRawQ[1], run.WallRawQ[2] = Quartiles(wallRaw)
	wallS := run.WallQ[1]
	values := map[string]float64{
		"wall_s":       wallS,
		"work_per_s":   w.Units / wallS,
		"setup_s":      Median(setup),
		"alloc_mb":     float64(alloc) / float64(len(wall)) / 1e6,
		"peak_rss_mb":  Median(peakKB) / 1024,
		"coop_speedup": run.Children[0].CoopSpeedup,
	}
	run.Result = newResult(EndToEnd, values, chk)
	return run, nil
}

// newResult packs values for the metrics of defs; a missing or non-finite
// value is a failure, so a run can never report a metric it did not measure.
func newResult(defs []MetricDef, values map[string]float64, chk Checks) Result {
	res := Result{Metrics: map[string]Metric{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			chk.fail("metric %s was not measured", d.Name)
			v = 0
		}
		res.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	chk.Attempted = max(chk.Attempted, 1)
	res.Attempted, res.Failed, res.Correct = chk.Attempted, chk.Failed, chk.Failed == 0
	for _, e := range chk.Errors {
		fmt.Fprintln(os.Stderr, "flbench: FAILED:", e)
	}
	return res
}
