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

// nway is the protocol state of a NewTopo runtime, whose one queue per
// device is the runtime's app queue: outFree recycles nwayOut bookkeeping;
// cargs keeps one reusable ocl arg slice per device (a chunk launch reads its
// args when it starts, and the device's worker waits for the chunk to finish
// before the next claim rewrites the slice). Both are touched only inside
// the cooperative engine.
type nway struct {
	r       *Runtime
	outFree []*nwayOut
	cargs   [][]ocl.Arg
}

func newNway(r *Runtime) *nway {
	n := &nway{r: r, cargs: make([][]ocl.Arg, len(r.ctxs))}
	r.app = make([]*ocl.CommandQueue, len(r.ctxs))
	for di := range r.ctxs {
		r.app[di] = r.createQueue(di, "app")
	}
	return n
}

func (n *nway) source(e *transformEntry, di int) string { return e.cpuSrc }

func (n *nway) variantContext() *ocl.Context { return nil }

// awaitHost drains every device queue. Kernel calls block until the
// host-rooted merge completes, so the host shadow is already current (the
// device-to-host cost was paid by the chunk ships); the drain makes a
// readback additionally wait for input broadcasts no kernel consumed.
func (n *nway) awaitHost(p *sim.Proc, b *Buffer) { n.r.Finish(p) }

// nwayOut is the merge bookkeeping for one written buffer of one launch.
// Instances and their interval sets are pooled on the protocol; orig comes
// from the byte pool. Merges own the buffer's host shadow and write directly
// into it (diffing against orig unless the writes are exact), so there is no
// separate res copy to commit — on a hard certificate error the shadow may
// hold a partial merge, but every later call observes the deferred error, so
// the partial state is unobservable.
type nwayOut struct {
	b   *Buffer
	idx int // original parameter index
	// exact: the strided footprint proves the chunk writes every byte of
	// its ship window (MustCover + Monotone ⇒ each chunk hull is exactly
	// tiled by its groups' must-write spans), enabling the compare-free
	// copy fast path in diffMergeChunk.
	exact bool
	orig  []byte // pooled pre-kernel host snapshot, nil when exact
	dirty intervalSet
	own   []intervalSet // per-device: runs that device's chunks changed
}

// getOut acquires pooled merge bookkeeping for one written buffer.
func (n *nway) getOut(b *Buffer, idx int, el elision) *nwayOut {
	var o *nwayOut
	if f := len(n.outFree); f > 0 {
		o = n.outFree[f-1]
		n.outFree = n.outFree[:f-1]
	} else {
		o = &nwayOut{own: make([]intervalSet, len(n.r.app))}
	}
	o.b, o.idx = b, idx
	o.exact = el.writes != nil && el.writes.MustCover && el.writes.Monotone()
	o.orig = nil
	if !o.exact {
		o.orig = n.r.bp.get(b.Size)
		b.host.ReadAt(o.orig, 0)
	}
	o.dirty.reset()
	for i := range o.own {
		o.own[i].reset()
	}
	return o
}

// putOut releases o's pooled resources after the post-join commit.
func (n *nway) putOut(o *nwayOut) {
	n.r.bp.put(o.orig)
	o.orig, o.b = nil, nil
	if len(n.outFree) < maxPooledBufs {
		n.outFree = append(n.outFree, o)
	}
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
	rep.DeviceWGs = make([]int, len(r.app))

	// Plan the launch's transfers: for every buffer argument, flush its
	// stale device copies (the delta refresh), then set up merge bookkeeping
	// for written buffers. The planner's flush tally is this protocol's.
	var outs []*nwayOut
	for i, param := range k.Info.Kernel.Params {
		if !param.Ty.Ptr || total == 0 {
			continue
		}
		r.ctr.RefreshDeltas += r.flushPend(l.args[i].Buf, "refresh")
		if k.Info.ParamAccess[param.Name].Written {
			outs = append(outs, n.getOut(l.args[i].Buf, i, l.el[i]))
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

	for di, q := range r.app {
		di, q := di, q
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
				// One reusable arg slice per device: the launch reads it
				// when it starts, and this worker waits for the launch
				// before rewriting it for the next chunk.
				cargs := lowerChunkArgs(n.cargs[di][:0], l.args, di, clo, chi)
				n.cargs[di] = cargs
				t0 := sp.Now()
				ev, res := q.EnqueueNDRangeKernel(k.ks[di], l.nd.Slice(clo, chi), cargs, ocl.LaunchOpts{
					Split: cfg.Kind == device.CPU && !r.opts.NoWorkGroupSplit && l.k.splitOK,
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
		// The per-chunk window checks ran in shipChunk; the access masks are
		// a launch-level fact.
		firstErr = l.checkAccessMasks(&dyn)
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
	// queue ahead of the chunk launches (§5.5 generalized). The launch
	// flushed every pending set before its first chunk, so each starts
	// empty here.
	for _, o := range outs {
		b := o.b
		for di := range b.pend {
			added := b.pend[di].addSetMinus(&o.dirty, &o.own[di])
			b.pend[di].capSpans()
			r.ctr.RefreshBytesSkipped += int64(b.Size - added)
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
		data := r.bp.get(end - off)
		ev := r.app[di].EnqueueReadBufferAtTagged(o.b.bufs[di], off, data, "ship")
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
			diffMergeChunk(data, o.orig, o.b.host.Own(true), off, o.exact, &o.dirty, &o.own[di])
			r.bp.put(data)
		})
	}
	return nil
}
