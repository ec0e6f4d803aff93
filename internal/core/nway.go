package core

import (
	"fmt"

	"fluidicl/internal/device"
	"fluidicl/internal/ocl"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// This file is the N-way protocol: the twin protocol generalized to an
// N-device topology. Where the twin protocol races one full-range GPU launch
// against a CPU scheduler stealing from the tail, the N-way protocol treats
// the flattened work-group range as a shared pool with two claim fronts:
// GPU-class devices claim chunks ascending from the grid head, CPU-class
// devices steal descending from the shared tail, and the fronts meet
// somewhere in the middle. Every device runs the range-guarded
// CPU-transformed kernel over its chunks with per-device adaptive chunk
// sizing (§5.1 generalized) — chunks are claimed, not raced, so no device
// needs the GPU abort-check transformation; chunk results ship over each
// device's interconnect link to the host root, narrowed by the launch's
// certified ship windows; the host diff-merges shipped bytes against a
// pre-kernel snapshot (§4.3's merge, rooted at the host instead of the GPU)
// and the delta-refresh planner (planner.go) brings device copies current
// for the next kernel.
//
// The degenerate two-device machine does not go through this protocol at
// all: package sched routes Topology.Pair() machines to the twin protocol so
// their results and virtual timings stay bit-identical.

// nway is the protocol state of a NewTopo runtime: one application queue
// per device plus the merge-path pools (all touched only inside the
// cooperative engine): bp recycles per-chunk ship buffers, per-kernel orig
// snapshots and flush snapshots; sp recycles the span slices detached into
// in-flight scatter refreshes; outFree recycles nwayOut bookkeeping; cargs
// keeps one reusable ocl arg slice per device (chunk launches bind args at
// enqueue time, so the slice may be rewritten between launches).
type nway struct {
	r  *Runtime
	qs []*ocl.CommandQueue // per device

	bp      bytePool
	sp      spanPool
	outFree []*nwayOut
	cargs   [][]ocl.Arg
}

func newNway(r *Runtime) *nway {
	n := &nway{r: r, qs: make([]*ocl.CommandQueue, len(r.ctxs)), cargs: make([][]ocl.Arg, len(r.ctxs))}
	for di := range r.ctxs {
		n.qs[di] = r.createQueue(di, "app")
	}
	return n
}

func (n *nway) source(e *transformEntry, di int) string { return e.cpuSrc }

func (n *nway) variantContext() *ocl.Context { return nil }

// drain hands the merge path's pooled scratch over for recycling.
func (n *nway) drain(run [][]byte) [][]byte {
	run = append(run, n.bp.free...)
	n.bp.free = nil
	return run
}

// nwayResidency is the per-device residency table of one buffer. The host
// shadow is always the latest data once a kernel call returns; device copies
// are allowed to go stale and are brought current lazily by the
// delta-refresh planner: ver counts host-shadow versions, devVer[di] is the
// version device di's copy last fully matched, and pend[di] is the exact
// byte set device di's copy is missing. The invariant maintained by every
// mutation below is that a device copy differs from the host shadow only
// inside pend[di].
type nwayResidency struct {
	ver    int
	devVer []int
	pend   []intervalSet
}

func (b *Buffer) nway() *nwayResidency { return b.res.(*nwayResidency) }

// attach: device copies start identical to the host shadow, so every pending
// set is empty.
func (n *nway) attach(b *Buffer) {
	b.res = &nwayResidency{
		devVer: make([]int, len(n.qs)),
		pend:   make([]intervalSet, len(n.qs)),
	}
}

// write broadcasts snap to every device; each device's in-order queue
// sequences its copy before any later kernel chunk there. The written range
// becomes current everywhere, so it leaves every pending set.
func (n *nway) write(b *Buffer, snap []byte) {
	st := b.nway()
	if len(snap) > 0 {
		st.ver++
	}
	for i, q := range n.qs {
		q.EnqueueWriteBuffer(b.bufs[i], snap)
		st.pend[i].subtractRange(0, len(snap))
		if st.pend[i].empty() {
			st.devVer[i] = st.ver
		}
	}
}

// awaitHost drains every device queue. Kernel calls block until the
// host-rooted merge completes, so the host shadow is already current (the
// device-to-host cost was paid by the chunk ships); the drain makes a
// readback additionally wait for input broadcasts no kernel consumed.
func (n *nway) awaitHost(p *sim.Proc, b *Buffer) { n.r.Finish(p) }

// nwayOut is the merge bookkeeping for one written buffer of one launch.
// Instances and their interval sets are pooled on the protocol; orig comes
// from the byte pool. Merges write directly into the buffer's host shadow
// (diffing against orig), so there is no separate res copy to commit — on a
// hard certificate error the shadow may hold a partial merge, but every
// later call observes the deferred error, so the partial state is
// unobservable.
type nwayOut struct {
	b   *Buffer
	idx int // original parameter index
	// exact: the strided footprint proves the chunk writes every byte of
	// its ship window (MustCover + Monotone ⇒ each chunk hull is exactly
	// tiled by its groups' must-write spans), enabling the compare-free
	// copy fast path in diffMergeChunk.
	exact bool
	// staleShip: at least one device ran this kernel with a stale copy of
	// the buffer because the full-overwrite certificate elided its delta
	// flush; the post-join cross-check must then verify the dynamic write
	// hull covered the whole buffer.
	staleShip bool
	orig      []byte // pooled pre-kernel host snapshot; merges diff against it
	dirty     intervalSet
	own       []intervalSet // per-device: runs that device's chunks changed
}

// getOut acquires pooled merge bookkeeping for one written buffer.
func (n *nway) getOut(b *Buffer, idx int, el elision) *nwayOut {
	var o *nwayOut
	if f := len(n.outFree); f > 0 {
		o = n.outFree[f-1]
		n.outFree = n.outFree[:f-1]
	} else {
		o = &nwayOut{own: make([]intervalSet, len(n.qs))}
	}
	o.b, o.idx = b, idx
	o.exact = el.writes != nil && el.writes.MustCover && el.writes.Monotone()
	o.staleShip = false
	o.orig = n.bp.get(b.Size)
	copy(o.orig, b.host)
	o.dirty.reset()
	for i := range o.own {
		o.own[i].reset()
	}
	return o
}

// putOut releases o's pooled resources after the post-join commit.
func (n *nway) putOut(o *nwayOut) {
	n.bp.put(o.orig)
	o.orig = nil
	o.b = nil
	if len(n.outFree) < maxPooledBufs {
		n.outFree = append(n.outFree, o)
	}
}

// flushPend brings every stale device copy of b current before a kernel
// launch: each device with a non-empty pending set receives one scatter
// write of exactly the bytes it is missing, enqueued on its in-order queue
// so it lands before that device's first chunk of the kernel — pipelined
// against other devices' transfers and compute. The pending set's span
// array and a pooled host snapshot travel with the transfer and return to
// their pools when the last refresh retires.
func (n *nway) flushPend(b *Buffer, rep *KernelReport) {
	st := b.nway()
	need := 0
	for di := range st.pend {
		if !st.pend[di].empty() {
			need++
		}
	}
	if need == 0 {
		return
	}
	snap := n.bp.get(b.Size)
	for di := range st.pend {
		for _, s := range st.pend[di].spans {
			copy(snap[s.Off:s.End], b.host[s.Off:s.End])
		}
	}
	left := need
	for di := range st.pend {
		ps := &st.pend[di]
		if ps.empty() {
			continue
		}
		// Detach the span array into the transfer; the set continues with a
		// pooled replacement.
		spans := ps.spans
		ps.spans = n.sp.get()
		ps.scratch = ps.scratch[:0]
		n.qs[di].EnqueueWriteBufferSpansTagged(b.bufs[di], spans, snap, "refresh")
		n.qs[di].EnqueueCall(func() {
			n.sp.put(spans)
			if left--; left == 0 {
				n.bp.put(snap)
			}
		})
		st.devVer[di] = st.ver
		n.r.ctr.RefreshDeltas++
		rep.RefreshDeltas++
	}
}

// skipRefresh books n bytes the planner did not rebroadcast.
func (n *nway) skipRefresh(rep *KernelReport, bytes int64) {
	n.r.ctr.RefreshBytesSkipped += bytes
	rep.RefreshBytesSkipped += bytes
}

// run executes one launch on every device of the topology and blocks until
// the merged result is on the host and every device's pending delta is
// booked. The claim protocol is deterministic: workers run one at a time
// inside the cooperative engine, so claim interleavings are a pure function
// of virtual launch timings, which are themselves a pure function of the
// VM's deterministic stats.
func (n *nway) run(p *sim.Proc, l *launch) error {
	r, k, rep := n.r, l.k, l.rep
	total := l.nd.TotalGroups()
	rep.DeviceWGs = make([]int, len(n.qs))

	// Plan the launch's transfers: for every buffer argument, first decide
	// whether stale device copies must be flushed current (the delta
	// refresh), then set up merge bookkeeping for written buffers. A
	// write-only argument whose certificate proves the launch overwrites
	// the whole buffer needs no flush — the generalized N-device form of
	// the twin protocol's stale-upload elision; its pending bytes persist
	// (they may well be overwritten equal and stay stale) and the post-join
	// cross-check verifies the overwrite actually covered the buffer.
	var outs []*nwayOut
	for i, param := range k.Info.Kernel.Params {
		if !param.Ty.Ptr || total == 0 {
			continue
		}
		b := l.args[i].Buf
		written := k.Info.ParamAccess[param.Name].Written
		stale := false
		if written && l.el[i].fullOverwrite {
			for _, ps := range b.nway().pend {
				if !ps.empty() {
					stale = true
					n.skipRefresh(rep, int64(ps.bytes()))
					r.ctr.UploadsSkipped++
				}
			}
		} else {
			n.flushPend(b, rep)
		}
		if written {
			o := n.getOut(b, i, l.el[i])
			o.staleShip = stale
			outs = append(outs, o)
		}
	}

	if total == 0 {
		rep.End = p.Now()
		return nil
	}

	// The shared claim pool over flattened work-group IDs: GPU-class devices
	// claim [lo, ...] ascending, CPU-class devices steal [..., hi] descending.
	// Claims mutate lo/hi from worker procs that execute one at a time in the
	// cooperative engine, so no locking is needed and the claim sequence is
	// deterministic.
	lo, hi := 0, total-1
	claim := func(kind device.Kind, want int) (int, int, bool) {
		if lo > hi {
			return 0, 0, false
		}
		c := want
		if c < 1 {
			c = 1
		}
		if rem := hi - lo + 1; c > rem {
			c = rem
		}
		if kind == device.GPU {
			c0 := lo
			lo += c
			return c0, c0 + c - 1, true
		}
		c1 := hi
		hi -= c
		return c1 - c + 1, c1, true
	}

	wg := r.Env.NewWaitGroup()
	var firstErr error
	var dyn vm.Stats // aggregate dynamic stats across every chunk launch
	subkernels := 0

	for di := range n.qs {
		di := di
		cfg := &r.ctxs[di].Dev.Cfg
		wg.Add(1)
		r.Env.Go(fmt.Sprintf("topo-dev%d-k%d", di, l.kid), func(sp *sim.Proc) {
			defer wg.Done()
			sizer := r.newChunkSizer(total, cfg.ComputeUnits)
			for firstErr == nil {
				clo, chi, ok := claim(cfg.Kind, sizer.next())
				if !ok {
					return
				}
				// One reusable arg slice per device: the launch binds args
				// synchronously at enqueue time, so rewriting it for the
				// next chunk is safe.
				cargs := lowerChunkArgs(n.cargs[di][:0], l.args, di, clo, chi)
				n.cargs[di] = cargs
				t0 := sp.Now()
				ev, res := n.qs[di].EnqueueNDRangeKernel(k.ks[di], l.nd.Slice(clo, chi), cargs, ocl.LaunchOpts{
					Split:   cfg.Kind == device.CPU && !r.opts.NoWorkGroupSplit && l.split,
					Backend: r.opts.Backend,
				})
				sp.Wait(ev)
				if res.Err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("core: device %d execution of %q: %w", di, k.Name, res.Err)
					}
					return
				}
				dyn.Add(res.Stats)
				c := chi - clo + 1
				rep.DeviceWGs[di] += c
				if cfg.Kind == device.CPU {
					rep.CPUWGs += c
				} else {
					rep.GPUExecuted += c
				}
				subkernels++

				// Validate the chunk's dynamic writes against the certificate
				// windows its ships rely on, then ship each out buffer's
				// window over this device's link to the host root.
				if err := n.shipChunk(l, di, clo, chi, outs, &res.Stats, wg); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				sizer.observe((sp.Now() - t0) / float64(c))
			}
		})
	}

	// Blocking kernel call: join every worker and every in-flight ship, then
	// cross-check and commit the host-rooted merge.
	wg.Wait(p)
	rep.Subkernels = subkernels
	rep.CPUDidAll = rep.GPUExecuted == 0
	if firstErr == nil {
		// The per-chunk window checks ran in shipChunk; the access masks and
		// full-overwrite coverage are launch-level facts.
		firstErr = l.checkAccessMasks(&dyn)
	}
	for _, o := range outs {
		if firstErr == nil && o.staleShip {
			firstErr = l.checkFullOverwrite(o.idx, &dyn)
		}
	}
	if firstErr != nil {
		r.deferredErr = firstErr
		return firstErr
	}

	// Commit: the merges already folded every changed run into the host
	// shadow, which now is the truth for the next kernel. Instead of
	// rebroadcasting it, the planner only books what each device is
	// missing: a device's own runs are current there (owner-skip), every
	// other changed run joins its pending set, and a device whose pending
	// set stayed empty remains version-current — its refresh is skipped
	// entirely. The deltas themselves are flushed lazily by the next kernel
	// that touches the buffer on that device, pipelined on its in-order
	// queue ahead of the chunk launches (§5.5 generalized).
	for _, o := range outs {
		b, st := o.b, o.b.nway()
		if !o.dirty.empty() {
			st.ver++
		}
		for di := range n.qs {
			st.pend[di].subtract(&o.own[di])
			added := st.pend[di].addSetMinus(&o.dirty, &o.own[di])
			st.pend[di].capSpans()
			n.skipRefresh(rep, int64(b.Size-added))
			if st.pend[di].empty() {
				st.devVer[di] = st.ver
			}
		}
		n.putOut(o)
	}
	rep.End = p.Now()
	return nil
}

// shipChunk validates one completed chunk's dynamic writes against the
// certificate windows and ships each out buffer's narrowed byte range from
// device di to the host root, diff-merging on arrival. The read is enqueued
// on the device's in-order queue (ordered after the chunk that produced the
// data); a helper process joins the transfer and merges, so the worker never
// blocks on its own ships. wg tracks each in-flight ship so the kernel call
// can join them all.
func (n *nway) shipChunk(l *launch, di, lo, hi int, outs []*nwayOut, stats *vm.Stats, wg *sim.WaitGroup) error {
	r := n.r
	for _, o := range outs {
		el := l.el[o.idx]
		off, end := shipWindow(el, o.b.Size, l.nd, lo, hi)
		if el.narrowed() {
			// A dynamic write outside a narrowed window means merged results
			// may be silently wrong: hard error before anything ships.
			if err := l.checkWindow(o.idx, stats, lo, hi, off, end); err != nil {
				return err
			}
			skipped := int64(o.b.Size - (end - off))
			r.ctr.ShipBytesSkipped += skipped
			r.ctr.MergeWordsElided += skipped / 4
		}
		if end == off {
			continue
		}
		o := o
		data := n.bp.get(end - off)
		ev := n.qs[di].EnqueueReadBufferAtTagged(o.b.bufs[di], off, data, "ship")
		wg.Add(1)
		r.Env.Go(fmt.Sprintf("topo-ship-d%d-k%d-lo%d", di, l.kid, lo), func(mp *sim.Proc) {
			defer wg.Done()
			mp.Wait(ev)
			// Host-rooted diff-merge (§4.3): a word differing from the
			// pre-kernel snapshot was computed by this chunk; equal words are
			// either untouched or recomputed identically elsewhere. Hull
			// over-approximation is safe: bytes inside the window that this
			// chunk did not write still hold pre-kernel data on the device —
			// the flush at kernel start made the device copy current — which
			// compares equal to orig. Changed runs land directly in the host
			// shadow and feed the delta-refresh planner's dirty/own sets;
			// merge procs run one at a time in the cooperative engine, so no
			// locking is needed and the merge order is deterministic.
			diffMergeChunk(data, o.orig, o.b.host, off, o.exact, &o.dirty, &o.own[di])
			n.bp.put(data)
		})
	}
	return nil
}
