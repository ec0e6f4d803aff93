package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"fluidicl/internal/ocl"
	"fluidicl/internal/passes"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// This file is the paper's twin protocol (§4–§6): the GPU runs the
// abort-checked kernel over the full NDRange while a CPU scheduler thread
// steals chunks from the tail, ships their results and a status message to
// the GPU, and a generated diff-merge kernel on the GPU folds the two
// devices' results together; a device-to-host thread returns the merged
// data asynchronously so the next kernel can overlap it.

// The twin protocol's device indices (New's device order).
const (
	twinCPU = 0
	twinGPU = 1
)

// twin is the protocol state of a New runtime.
type twin struct {
	r *Runtime

	gpuApp *ocl.CommandQueue // application GPU queue: kernels + merges
	gpuHD  *ocl.CommandQueue // host-to-device queue: CPU data + status (§5.4)
	gpuDH  *ocl.CommandQueue // device-to-host queue: merged results (§5.4)
	cpuQ   *ocl.CommandQueue // CPU device queue

	mergeK    *ocl.Kernel
	statusBuf *ocl.Buffer
	pool      *bufferPool
}

func newTwin(r *Runtime) (*twin, error) {
	t, gpu := &twin{r: r}, r.ctxs[twinGPU]
	t.gpuApp = r.createQueue(twinGPU, "app")
	t.gpuHD = r.createQueue(twinGPU, "hd")
	t.gpuDH = r.createQueue(twinGPU, "dh")
	t.cpuQ = r.createQueue(twinCPU, "app")
	mergeProg, err := gpu.BuildProgram(passes.MergeKernelSource)
	if err != nil {
		return nil, fmt.Errorf("core: building merge kernel: %w", err)
	}
	if t.mergeK, err = mergeProg.CreateKernel(passes.MergeKernelName); err != nil {
		return nil, err
	}
	t.statusBuf = gpu.CreateBuffer(4 * passes.StatusWords)
	t.pool = &bufferPool{ctx: gpu}
	return t, nil
}

func (t *twin) source(e *transformEntry, di int) string {
	if di == twinGPU {
		return e.gpuSrc
	}
	return e.cpuSrc
}

func (t *twin) variantContext() *ocl.Context { return t.r.ctxs[twinCPU] }

// drain hands the pooled scratch storage over for recycling.
func (t *twin) drain(run [][]byte) [][]byte {
	for _, b := range t.pool.free {
		run = append(run, b.Detach())
	}
	t.pool.free = nil
	return run
}

// cpuVersion returns CPU subkernel version v of k: 0 is the original
// kernel, v > 0 an alternate registered with AddCPUVariant (§6.6).
func cpuVersion(k *Kernel, v int) *ocl.Kernel {
	if v == 0 {
		return k.ks[twinCPU]
	}
	return k.variants[v-1]
}

// ---- residency: versions and data location (§5.3, §6.2) ----

// twinResidency tracks which kernel's output a buffer holds where.
type twinResidency struct {
	expectedVersion int // kernel ID expected to produce the next contents
	receivedVersion int // version present in the host shadow / CPU buffer

	locCPU bool // most recent data available on the CPU side
	locGPU bool // most recent data available on the GPU

	cpuReady *sim.Event // fires when receivedVersion reaches expectedVersion
}

func (b *Buffer) twin() *twinResidency { return b.res.(*twinResidency) }

func (t *twin) attach(b *Buffer) {
	st := &twinResidency{locCPU: true, locGPU: true, cpuReady: t.r.Env.NewEvent()}
	st.cpuReady.Fire()
	b.res = st
}

func (t *twin) write(b *Buffer, snap []byte) {
	t.gpuApp.EnqueueWriteBuffer(b.bufs[twinGPU], snap)
	t.cpuQ.EnqueueWriteBuffer(b.bufs[twinCPU], snap)
	st := b.twin()
	st.locCPU, st.locGPU = true, true
	st.receivedVersion = st.expectedVersion
	if !st.cpuReady.Fired() {
		st.cpuReady.Fire()
	}
}

// awaitHost waits only when a device-to-host transfer for the current
// version is in flight (or the data lives only on the GPU); data location
// tracking (§6.2) makes every other read free. It must not drain the queues:
// the paper's host program reads its outputs while later transfers are still
// in flight.
func (t *twin) awaitHost(p *sim.Proc, b *Buffer) {
	if st := b.twin(); st.receivedVersion != st.expectedVersion || !st.locCPU {
		p.Wait(st.cpuReady)
	}
}

// statusUpdate is one CPU-completion message as observed at the GPU (the
// moment its transfer landed).
type statusUpdate struct {
	t        sim.Time
	doneFrom int
}

// statusLog implements device.AbortQuery over the time-ordered list of
// status arrivals for one kernel execution. The same arrivals also update
// the GPU-resident status buffer that the transformed kernel's abort checks
// read, so the timing view and the functional view always agree.
type statusLog struct {
	env     *sim.Env
	updates []statusUpdate
	changed *sim.Event
}

func newStatusLog(env *sim.Env) *statusLog {
	return &statusLog{env: env, changed: env.NewEvent()}
}

// record notes a status arrival at the current virtual time.
func (s *statusLog) record(doneFrom int) {
	s.updates = append(s.updates, statusUpdate{t: s.env.Now(), doneFrom: doneFrom})
	old := s.changed
	s.changed = s.env.NewEvent()
	old.Fire()
}

// DoneAt reports whether fgid was CPU-complete as of time t.
func (s *statusLog) DoneAt(fgid int, t sim.Time) bool {
	for _, u := range s.updates {
		if u.t <= t && fgid >= u.doneFrom {
			return true
		}
	}
	return false
}

// DoneSince returns the earliest arrival after `after` covering fgid.
func (s *statusLog) DoneSince(fgid int, after sim.Time) (sim.Time, bool) {
	for _, u := range s.updates {
		if u.t > after && fgid >= u.doneFrom {
			return u.t, true
		}
	}
	return 0, false
}

// Changed returns the (unfired) event for the next status arrival.
func (s *statusLog) Changed() *sim.Event { return s.changed }

func encodeStatus(kid, doneFrom int32) []byte {
	b := make([]byte, 4*passes.StatusWords)
	binary.LittleEndian.PutUint32(b[4*passes.StatusKernelID:], uint32(kid))
	binary.LittleEndian.PutUint32(b[4*passes.StatusDoneFrom:], uint32(doneFrom))
	return b
}

// schedOutcome is what the CPU scheduler thread reports back.
type schedOutcome struct {
	didAll      bool
	cpuWGs      int
	subkernels  int
	variantUsed int
	lastHD      *sim.Event
	err         error
	stats       vm.Stats // aggregate dynamic stats of all CPU subkernels
}

// scratchPair holds the per-out-buffer GPU scratch buffers used by the
// merge step — the unmodified original and the CPU-data landing area.
type scratchPair struct {
	buf     *Buffer
	idx     int        // original parameter index
	ready   *sim.Event // this kernel's CPU-side readiness event for buf
	orig    *ocl.Buffer
	cpuCopy *ocl.Buffer
}

// run executes one launch under the twin protocol. The call returns as soon
// as the kernel's results are determined; the device-to-host transfer of
// merged results proceeds asynchronously so the next kernel can overlap it
// (§5.5).
func (t *twin) run(p *sim.Proc, l *launch) error {
	r, k, kid, nd, rep := t.r, l.k, l.kid, l.nd, l.rep
	var scratches []scratchPair // one per written buffer
	var inputReady []*sim.Event
	var staleUploads []int // parameters whose stale-GPU-copy upload was elided
	for i, param := range k.Info.Kernel.Params {
		if !param.Ty.Ptr {
			continue
		}
		b := l.args[i].Buf
		st := b.twin()
		acc := k.Info.ParamAccess[param.Name]
		if acc.Read {
			// The CPU scheduler must wait for this buffer's current version
			// to be available CPU-side (§5.3). Capture the readiness event
			// before out-buffer bookkeeping replaces it.
			inputReady = append(inputReady, st.cpuReady)
		}
		if acc.Written {
			scratches = append(scratches, scratchPair{buf: b, idx: i})
		}
		// GPU-side readiness: if the most recent data lives only on the
		// CPU (previous kernel ran entirely there), upload it first. The
		// write is ordered before the kernel by the in-order app queue.
		// When the analyzer proved the kernel overwrites every word of the
		// buffer, the stale GPU copy never becomes visible — both devices
		// recompute their slots from unwritten inputs — and the upload is
		// skipped (the merge compares CPU data against the same stale
		// bytes the scratches were primed from, so untouched words keep
		// whatever the GPU holds and touched words take a freshly computed
		// value from one device or the other).
		if !st.locGPU {
			if l.el[i].fullOverwrite {
				staleUploads = append(staleUploads, i)
				r.ctr.UploadsSkipped++
				r.tracef(kid, "upload of stale out buffer %q skipped (full-overwrite summary)", param.Name)
			} else {
				t.gpuApp.EnqueueWriteBufferTagged(b.bufs[twinGPU], r.snapshot(b.host), "upload")
				st.locGPU = true
			}
		}
	}

	// Scratch buffers for merging (§4.1, §6.1): per out buffer, a copy of
	// the unmodified data and a landing area for CPU-computed data. Both
	// start as copies of the current contents so unreceived regions compare
	// equal in the diff step. For a slot-exact out buffer the cpuCopy prime
	// is elided: the narrowed merge window reads only words the CPU ships.
	for i := range scratches {
		sc := &scratches[i]
		gpuBuf := sc.buf.bufs[twinGPU]
		sc.orig, sc.cpuCopy = t.pool.acquire(sc.buf.Size), t.pool.acquire(sc.buf.Size)
		t.gpuApp.EnqueueCopyBuffer(gpuBuf, sc.orig)
		if l.el[sc.idx].slotExact {
			r.ctr.PrimeCopiesElided++
		} else {
			t.gpuApp.EnqueueCopyBuffer(gpuBuf, sc.cpuCopy)
		}
	}

	// The status buffer is not reset between kernels: a stale status names
	// the previous kernel's ID and the abort check ignores it (§5.3's
	// version-based discarding of stale messages).

	// Out-buffer version bookkeeping (§5.3). Each scratch keeps the
	// readiness event created for THIS kernel: by the time its data reaches
	// the CPU side a later kernel may have replaced the buffer's event.
	for i := range scratches {
		st := scratches[i].buf.twin()
		st.expectedVersion = kid
		st.locCPU = false
		st.cpuReady = r.Env.NewEvent()
		scratches[i].ready = st.cpuReady
	}

	// Launch the transformed kernel over the full NDRange on the GPU.
	slog := newStatusLog(r.Env)
	gpuArgs := make([]ocl.Arg, 0, len(l.args)+passes.GPUExtraArgs)
	for _, a := range l.args {
		gpuArgs = append(gpuArgs, a.lower(twinGPU))
	}
	gpuArgs = append(gpuArgs, ocl.BufArg(t.statusBuf), ocl.IntArg(int64(kid)))
	gpuDone, gpuRes := t.gpuApp.EnqueueNDRangeKernel(k.ks[twinGPU], nd, gpuArgs, ocl.LaunchOpts{
		Abort:    slog,
		MidAbort: !r.opts.NoAbortInLoops,
		Backend:  r.opts.Backend,
	})

	// CPU scheduler thread (§4.2, §5.1).
	outcome := &schedOutcome{variantUsed: k.bestCPUVar}
	sched := r.Env.Go(fmt.Sprintf("fcl-cpu-sched-k%d", kid), func(sp *sim.Proc) {
		t.runCPUScheduler(sp, l, scratches, slog, gpuDone, inputReady, outcome)
	})

	// Blocking kernel call: the kernel is complete as soon as EITHER the
	// GPU kernel finishes OR the CPU has computed the entire NDRange (the
	// GPU kernel then keeps draining on its queue, its results ignored,
	// §4.2 — it may not even have started yet if its input upload is still
	// on the bus). A laggard CPU subkernel likewise keeps running on the
	// CPU device queue and the next kernel's subkernels queue behind it.
	firstDone := r.Env.NewEvent()
	r.Env.Go(fmt.Sprintf("fcl-watch-gpu-k%d", kid), func(wp *sim.Proc) {
		wp.Wait(gpuDone)
		firstDone.Fire()
	})
	r.Env.Go(fmt.Sprintf("fcl-watch-cpu-k%d", kid), func(wp *sim.Proc) {
		wp.Wait(sched.Done)
		// Return without the GPU only when its kernel has not even begun
		// (still behind its input upload on the bus); a started kernel
		// drains quickly once the final status lands, and waiting for it
		// avoids leaving a zombie launch in front of the next kernel.
		if (outcome.didAll && !gpuRes.Started) || outcome.err != nil {
			firstDone.Fire()
		}
	})
	p.Wait(firstDone)

	// Report fields finalize when each side completes.
	r.Env.Go(fmt.Sprintf("fcl-report-k%d", kid), func(fp *sim.Proc) {
		fp.Wait(sched.Done)
		rep.CPUWGs = outcome.cpuWGs
		rep.Subkernels = outcome.subkernels
		rep.CPUDidAll = outcome.didAll
		rep.VariantUsed = outcome.variantUsed
		if outcome.err != nil {
			r.deferredErr = fmt.Errorf("core: CPU execution of %q: %w", k.Name, outcome.err)
		}
		fp.Wait(gpuDone)
		rep.GPUExecuted = gpuRes.Executed
		rep.GPUSkipped = gpuRes.Skipped
		rep.GPUAborted = gpuRes.Aborted
		if gpuRes.Err != nil {
			r.deferredErr = fmt.Errorf("core: GPU execution of %q: %w", k.Name, gpuRes.Err)
		}
		if err := l.crossCheckTwin(staleUploads, outcome, gpuRes.Stats); err != nil && r.deferredErr == nil {
			r.deferredErr = err
		}
	})
	if gpuDone.Fired() {
		r.tracef(kid, "GPU kernel done (executed %d, skipped %d, aborted %d)",
			gpuRes.Executed, gpuRes.Skipped, gpuRes.Aborted)
		if gpuRes.Err != nil {
			return fmt.Errorf("core: GPU execution of %q: %w", k.Name, gpuRes.Err)
		}
	}
	if outcome.err != nil {
		return fmt.Errorf("core: CPU execution of %q: %w", k.Name, outcome.err)
	}

	// "CPU computed the entire NDRange first" (§4.2): either the GPU is
	// still running (the CPU beat it outright), or both finished and the
	// GPU did not cover the whole range itself.
	if sched.Done.Fired() && outcome.didAll &&
		(!gpuDone.Fired() || gpuRes.Executed < nd.TotalGroups()) {
		// The final data is already on the CPU; the GPU's partial results
		// are ignored and no device-to-host transfer is needed (§4.2, §4.4).
		r.tracef(kid, "CPU completed entire NDRange first; GPU results ignored")
		for _, sc := range scratches {
			b := sc.buf
			p.Wait(t.cpuQ.EnqueueReadBuffer(b.bufs[twinCPU], b.host))
			st := b.twin()
			st.receivedVersion = kid
			st.locCPU = true
			st.locGPU = false
			sc.ready.Fire()
		}
		t.releaseScratchesWhenSafe(sched.Done, gpuDone, scratches, outcome, nil)
		rep.End = p.Now()
		r.tracef(kid, "kernel call returns (CPU-did-all path)")
		return nil
	}

	// Data merge on the GPU (§4.3). If no status update had arrived by GPU
	// completion, the GPU executed every work-group itself, so the merge is
	// a no-op and is skipped (data that lands later duplicates values the
	// GPU already computed).
	doMerge := len(slog.updates) > 0
	if doMerge {
		r.tracef(kid, "enqueue data merge for %d buffer(s)", len(scratches))
	} else {
		r.tracef(kid, "merge skipped (no CPU data arrived)")
	}
	// loFinal is the lowest flattened work-group ID whose CPU data has been
	// shipped; certified buffers narrow their merge window to the word range
	// those work-groups could have written.
	loFinal := 0
	if doMerge {
		loFinal = slog.updates[0].doneFrom
		for _, u := range slog.updates {
			if u.doneFrom < loFinal {
				loFinal = u.doneFrom
			}
		}
	}
	var mergeEvents []*sim.Event
	dhCopies := make([]*ocl.Buffer, len(scratches))
	for i, sc := range scratches {
		gpuBuf := sc.buf.bufs[twinGPU]
		if doMerge {
			el := l.el[sc.idx]
			mergeLo, mergeHi := mergeWindow(el, sc.buf.Size, nd, loFinal)
			if el.narrowed() {
				r.ctr.MergeWordsElided += int64(sc.buf.Size/4 - (mergeHi - mergeLo))
			}
			if span := mergeHi - mergeLo; span > 0 {
				local := 64
				global := ((span + local - 1) / local) * local
				margs := []ocl.Arg{
					ocl.BufArg(sc.cpuCopy), ocl.BufArg(gpuBuf), ocl.BufArg(sc.orig),
					ocl.IntArg(int64(mergeHi)), ocl.IntArg(int64(mergeLo)),
				}
				ev, _ := t.gpuApp.EnqueueNDRangeKernel(t.mergeK, vm.NewNDRange1D(global, local), margs, ocl.LaunchOpts{Backend: r.opts.Backend})
				mergeEvents = append(mergeEvents, ev)
			}
		}
		// Snapshot the merged result device-side so the device-to-host
		// transfer can overlap the next kernel's writes to the same buffer
		// (§5.5: copies of out buffers are made at the end of the kernel).
		dhCopies[i] = t.pool.acquire(sc.buf.Size)
		mergeEvents = append(mergeEvents, t.gpuApp.EnqueueCopyBuffer(gpuBuf, dhCopies[i]))
		sc.buf.twin().locGPU = true
	}
	var dhDone *sim.Event
	if len(scratches) > 0 {
		dhDone = r.Env.NewEvent()
		r.Env.Go(fmt.Sprintf("fcl-dh-k%d", kid), func(dp *sim.Proc) {
			dp.WaitAll(mergeEvents...)
			for i, sc := range scratches {
				b := sc.buf
				dp.Wait(t.gpuDH.EnqueueReadBuffer(dhCopies[i], b.host))
				r.tracef(kid, "device-to-host transfer of out buffer %d complete", i)
				// Refresh the CPU device's copy so subsequent kernels can
				// execute there too (§4.4). No need to wait: the in-order
				// CPU queue sequences this write before any later
				// subkernel, even behind a laggard subkernel of this
				// kernel whose results are being ignored.
				t.cpuQ.EnqueueWriteBufferTagged(b.bufs[twinCPU], b.host, "refresh")
				// A later kernel may have claimed the buffer meanwhile (an
				// in-place update): its CPU scheduler waits on THIS kernel's
				// event for its input, so that is the one to fire — but the
				// host shadow is only version kid, which must not pass for
				// the newer version a reader now expects.
				if st := b.twin(); st.expectedVersion == kid {
					st.receivedVersion = kid
					st.locCPU = true
				}
				sc.ready.Fire()
				t.pool.release(dhCopies[i])
			}
			dhDone.Fire()
		})
	}
	t.releaseScratchesWhenSafe(sched.Done, gpuDone, scratches, outcome, dhDone)
	rep.End = p.Now()
	r.tracef(kid, "kernel call returns (merge path)")
	return nil
}

// crossCheckTwin validates the dynamic access stats of one completed launch
// against the static summary its elisions relied on: the access masks, the
// launch-level certified windows, the windows of the group suffix the CPU
// was assigned (ship narrowing forwarded only those bytes to the merge),
// and full coverage wherever a stale-GPU-copy upload was elided.
func (l *launch) crossCheckTwin(staleUploads []int, out *schedOutcome, gpuStats vm.Stats) error {
	var dyn vm.Stats
	dyn.Add(out.stats)
	dyn.Add(gpuStats)
	if err := l.checkAccessMasks(&dyn); err != nil {
		return err
	}
	total := l.nd.TotalGroups()
	for i := range l.el {
		if !l.el[i].narrowed() {
			continue
		}
		size := l.args[i].Buf.Size
		off, end := shipWindow(l.el[i], size, l.nd, 0, total-1)
		if err := l.checkWindow(i, &dyn, 0, total-1, off, end); err != nil {
			return err
		}
		if out.cpuWGs > 0 {
			off, end = shipWindow(l.el[i], size, l.nd, total-out.cpuWGs, total-1)
			if err := l.checkWindow(i, &out.stats, total-out.cpuWGs, total-1, off, end); err != nil {
				return err
			}
		}
	}
	for _, i := range staleUploads {
		// CPU-only coverage when the CPU computed everything: the result is
		// then read from the CPU buffer alone.
		cov := &dyn
		if out.didAll {
			cov = &out.stats
		}
		if err := l.checkFullOverwrite(i, cov); err != nil {
			return err
		}
	}
	return nil
}

// releaseScratchesWhenSafe returns scratch buffers to the pool once no
// in-flight transfer, queued copy or merge can still touch them: after the
// CPU scheduler exits, its last host-to-device transfer lands, the GPU
// kernel (and the scratch-priming copies queued before it) completes, and
// the DH thread (if any) finishes.
func (t *twin) releaseScratchesWhenSafe(schedDone, gpuDone *sim.Event, scratches []scratchPair, out *schedOutcome, dhDone *sim.Event) {
	if len(scratches) == 0 {
		return
	}
	t.r.Env.Go("fcl-scratch-release", func(p *sim.Proc) {
		p.Wait(schedDone)
		p.Wait(gpuDone)
		if out.lastHD != nil {
			p.Wait(out.lastHD)
		}
		if dhDone != nil {
			p.Wait(dhDone)
		}
		for _, sc := range scratches {
			t.pool.release(sc.orig)
			t.pool.release(sc.cpuCopy)
		}
	})
}

// runCPUScheduler is the CPU scheduler thread (§4.2): it waits for input
// buffers to be CPU-resident, then repeatedly launches subkernels over
// work-group ranges from the top of the flattened ID space downward,
// shipping computed data followed by a status message to the GPU after each
// subkernel, until either end of the range is met or the GPU finishes.
func (t *twin) runCPUScheduler(sp *sim.Proc, l *launch, scratches []scratchPair,
	slog *statusLog, gpuDone *sim.Event, inputReady []*sim.Event, out *schedOutcome) {
	r, k, kid := t.r, l.k, l.kid

	// Wait for the most recent versions of all inputs to reach the CPU
	// (§5.3). The GPU proceeds meanwhile — it always has current data.
	for _, ev := range inputReady {
		sp.Wait(ev)
	}
	r.tracef(kid, "CPU scheduler: inputs ready")
	if gpuDone.Fired() {
		r.tracef(kid, "CPU scheduler: GPU already finished; exiting")
		return
	}

	total := l.nd.TotalGroups()
	sizer := r.newChunkSizer(total, r.ctxs[twinCPU].Dev.Cfg.ComputeUnits)

	versions := 1 + len(k.variants)
	profiling := r.opts.OnlineProfiling && versions > 1 && !k.profiled
	varTimes := make([]float64, versions)
	varTried := 0
	curVar := k.bestCPUVar

	hi := total - 1
	for hi >= 0 && !gpuDone.Fired() {
		launchChunk := sizer.next()
		if profiling && varTried < versions {
			// Online profiling probes each kernel version on a small
			// allocation (§6.6: "running each kernel version for a small
			// allocation size"); work-group splitting keeps the cores busy.
			launchChunk = 2
			if launchChunk > total {
				launchChunk = total
			}
			curVar = varTried
		}
		lo := hi - launchChunk + 1
		if lo < 0 {
			lo = 0
		}
		cargs := lowerChunkArgs(make([]ocl.Arg, 0, len(l.args)+passes.CPUExtraArgs), l.args, twinCPU, lo, hi)
		r.tracef(kid, "CPU subkernel launch: work-groups [%d, %d] (variant %d)", lo, hi, curVar)
		t0 := sp.Now()
		ev, res := t.cpuQ.EnqueueNDRangeKernel(cpuVersion(k, curVar), l.nd.Slice(lo, hi), cargs, ocl.LaunchOpts{
			// Work-group splitting needs the analyzer's blessing on top of
			// the user knob: a divergent barrier or a race finding makes
			// splitting one group across threads unsafe — unless this
			// launch's disjointness certificate overturned the race veto.
			Split:   !r.opts.NoWorkGroupSplit && l.split,
			Backend: r.opts.Backend,
		})
		sp.Wait(ev)
		if res.Err != nil {
			out.err = res.Err
			return
		}
		out.stats.Add(res.Stats)
		nWGs := hi - lo + 1
		avg := (sp.Now() - t0) / float64(nWGs)
		out.subkernels++
		out.cpuWGs += nWGs

		if profiling && varTried < versions {
			varTimes[varTried] = avg
			varTried++
			if varTried == versions {
				best := 0
				for i, vt := range varTimes {
					if vt < varTimes[best] {
						best = i
					}
				}
				k.bestCPUVar = best
				k.profiled = true
				curVar = best
			}
		}
		out.variantUsed = curVar

		// Ship computed data, then the status message, on the in-order hd
		// queue — the GPU treats a work-group as complete only once its
		// data has arrived (§4.2). Intermediate copies (the staging reads)
		// let the next subkernel proceed while transfers are in flight
		// (§5.5): the scheduler does not wait for any of this.
		if !gpuDone.Fired() {
			out.lastHD = t.shipToGPU(l, lo, hi, scratches, slog)
		}

		sizer.observe(avg)
		hi = lo - 1
	}
	if hi < 0 {
		out.didAll = true
	}
}

// shipToGPU stages one subkernel's out-buffer data off the CPU device and
// sends it, followed by the status message, to the GPU over the in-order hd
// queue. The staging reads are enqueued on the CPU queue (ordered after the
// subkernel that produced the data); a helper process waits for them and
// then enqueues the hd transfers, so the scheduler never blocks. The
// returned event fires when the status message has landed at the GPU.
//
// Each buffer's ship is narrowed to its certified window for the
// subkernel's work-groups [lo, hi] (shipWindow); earlier (higher) chunks
// were shipped by earlier subkernels. After a skipped upload, unwritten
// bytes inside a strided hull are promoted as the buffer's true surviving
// value — monotone spans guarantee no lower, not-yet-executed group can own
// a shipped byte in that case.
//
// Ordering across subkernels is preserved without extra synchronization:
// staging reads serialize on the in-order CPU queue, so the helper for
// subkernel N enqueues its hd transfers strictly before subkernel N+1's.
func (t *twin) shipToGPU(l *launch, lo, hi int, scratches []scratchPair, slog *statusLog) *sim.Event {
	r, kid := t.r, l.kid
	type staged struct {
		data []byte
		off  int
		ev   *sim.Event
		dst  *ocl.Buffer
	}
	var stages []staged
	for _, sc := range scratches {
		b, el := sc.buf, l.el[sc.idx]
		off, end := shipWindow(el, b.Size, l.nd, lo, hi)
		if el.narrowed() {
			r.ctr.ShipBytesSkipped += int64(b.Size - (end - off))
		}
		if end == off {
			continue // every slot of this chunk lies past the buffer's end
		}
		data := make([]byte, end-off)
		stages = append(stages, staged{
			data: data,
			off:  off,
			ev:   t.cpuQ.EnqueueReadBufferAt(b.bufs[twinCPU], off, data),
			dst:  sc.cpuCopy,
		})
	}
	shipped := r.Env.NewEvent()
	r.Env.Go(fmt.Sprintf("fcl-ship-k%d-lo%d", kid, lo), func(wp *sim.Proc) {
		for _, s := range stages {
			wp.Wait(s.ev)
		}
		for _, s := range stages {
			t.gpuHD.EnqueueWriteBufferAtTagged(s.dst, s.off, s.data, "ship")
		}
		st := encodeStatus(int32(kid), int32(lo))
		stEv := t.gpuHD.EnqueueWriteBufferTagged(t.statusBuf, st, "status")
		t.gpuHD.EnqueueCall(func() {
			slog.record(lo)
			r.tracef(kid, "status arrived at GPU: work-groups >= %d complete on CPU", lo)
		})
		wp.Wait(stEv)
		shipped.Fire()
	})
	return shipped
}

// ---- GPU scratch-buffer pool (§6.1) ----

type bufferPool struct {
	ctx     *ocl.Context
	free    []*ocl.Buffer
	Created int
	Reused  int
}

// acquire returns a free buffer of at least size bytes, creating one if
// necessary (smallest adequate buffer first).
func (p *bufferPool) acquire(size int) *ocl.Buffer {
	best := -1
	for i, b := range p.free {
		if b.Size >= size && (best < 0 || b.Size < p.free[best].Size) {
			best = i
		}
	}
	if best >= 0 {
		b := p.free[best]
		p.free = append(p.free[:best], p.free[best+1:]...)
		p.Reused++
		return b
	}
	p.Created++
	return p.ctx.CreateBuffer(size)
}

func (p *bufferPool) release(b *ocl.Buffer) {
	p.free = append(p.free, b)
	// Trim: keep the pool bounded (older unused buffers are freed, §6.1).
	// Delete clears the slots it vacates, so the backing array does not keep
	// the dropped buffers reachable.
	const maxPooled = 16
	if drop := len(p.free) - maxPooled; drop > 0 {
		for _, old := range p.free[:drop] {
			old.Free()
		}
		p.free = slices.Delete(p.free, 0, drop)
	}
}
