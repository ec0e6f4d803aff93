package core

import (
	"fmt"
	"slices"

	"fluidicl/internal/device"
	"fluidicl/internal/ocl"
	"fluidicl/internal/passes"
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
// and the delta-refresh planner (planner.go) books what each copy misses.
// Data follows the work (§5.5): a device is sent pending bytes only when its
// own chunks need them (sendInputs; read-write buffers excepted).
//
// The degenerate two-device machine does not go through this protocol at
// all: package sched routes Topology.Pair() machines to the twin protocol so
// their results and virtual timings stay bit-identical.

// nway is the protocol state of a NewTopo runtime, whose one queue per
// device is the runtime's app queue: outFree recycles nwayOut bookkeeping;
// cargs keeps one reusable ocl arg slice per device (a chunk launch reads its
// args when it starts, and the device's worker waits for the chunk to finish
// before the next claim rewrites the slice); ins backs each launch's
// buffers. All are touched only inside the cooperative engine.
type nway struct {
	r       *Runtime
	outFree []*nwayOut
	cargs   [][]ocl.Arg
	ins     []nwayIn
}

func newNway(r *Runtime) *nway {
	n := &nway{r: r, cargs: make([][]ocl.Arg, len(r.ctxs))}
	r.app = make([]*ocl.CommandQueue, len(r.ctxs))
	for di := range r.ctxs {
		r.app[di] = r.createQueue(di, "app")
	}
	return n
}

func (n *nway) source(e *passes.Program, di int) string { return e.CPUSrc }

func (n *nway) variantContext() *ocl.Context { return nil }

// awaitHost drains every device queue: kernel calls return with the host
// shadow current, and a readback also waits for flushes still landing.
func (n *nway) awaitHost(p *sim.Proc, b *Buffer) { n.r.Finish(p) }

// nwayIn is a launch's buffer, its access over all its bindings and, if
// only read, the snapshot every device's flush shares.
type nwayIn struct {
	b             *Buffer
	read, written bool
	snap          []byte
}

// nwayOut is the merge bookkeeping for one written buffer of one launch,
// pooled on the protocol; orig comes from the byte pool. Merges write the
// host shadow directly (diffing against orig unless the writes are exact):
// on a hard certificate error it may hold a partial merge, but every later
// call observes the deferred error, so the partial state is unobservable.
type nwayOut struct {
	b   *Buffer
	idx int // original parameter index
	// exact: the strided footprint proves the chunk writes every byte of
	// its ship window (MustCover + Monotone ⇒ each chunk hull is exactly
	// tiled by its groups' must-write spans), enabling the compare-free
	// copy fast path in diffMergeChunk.
	exact bool
	orig  []byte // pooled pre-kernel host snapshot, nil when exact
	src   []byte // Buffer.src at launch start
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
	o.src, b.src = b.src, nil // the merges write the host shadow
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
	o.orig, o.b, o.src = nil, nil, nil
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
	if total == 0 {
		rep.End = p.Now()
		return nil
	}

	// Plan per buffer (a binding reads it if the front end or the summary
	// says it may): a read-write one's stale copies are flushed now, tallied
	// as refreshes; the others wait for claims. Written ones get merge books.
	ins := n.ins[:0]
	for i, param := range k.Info.Kernel.Params {
		if !param.Ty.Ptr {
			continue
		}
		a, b := k.Info.ParamAccess[param.Name], l.args[i].Buf
		j := slices.IndexFunc(ins, func(in nwayIn) bool { return in.b == b })
		if j < 0 {
			j, ins = len(ins), append(ins, nwayIn{b: b})
		}
		ins[j].read = ins[j].read || a.Read || k.chkRead&(1<<uint(i)) != 0
		ins[j].written = ins[j].written || a.Written
	}
	n.ins = ins
	var outs []*nwayOut
	for _, in := range ins {
		if in.read && in.written {
			r.ctr.RefreshDeltas += r.flushPend(in.b, "refresh")
		}
	}
	for i, param := range k.Info.Kernel.Params {
		if param.Ty.Ptr && k.Info.ParamAccess[param.Name].Written {
			outs = append(outs, n.getOut(l.args[i].Buf, i, l.el[i]))
		}
	}

	// The shared claim pool over flattened work-group IDs: GPU-class devices
	// claim [lo, ...] ascending, CPU-class devices steal [..., hi] descending.
	// Worker procs run one at a time in the cooperative engine, so claims
	// need no locks and their sequence is deterministic.
	lo, hi := 0, total-1
	claim := func(kind device.Kind, want int) (int, int, bool) {
		c := min(max(want, 1), hi-lo+1)
		if c <= 0 {
			return 0, 0, false
		}
		if kind == device.GPU {
			lo += c
			return lo - c, lo - 1, true
		}
		hi -= c
		return hi + 1, hi + c, true
	}

	wg := r.Env.NewWaitGroup()
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	var dyn vm.Stats // aggregate dynamic stats across every chunk launch

	for di, q := range r.app {
		di, q := di, q
		cfg := &r.ctxs[di].Dev.Cfg
		wg.Add(1)
		r.Env.Go(fmt.Sprintf("topo-dev%d-k%d", di, l.kid), func(sp *sim.Proc) {
			defer wg.Done()
			sizer := r.newChunkSizer(total, cfg.ComputeUnits)
			for first := true; firstErr == nil; first = false {
				clo, chi, ok := claim(cfg.Kind, sizer.next())
				if !ok {
					return
				}
				n.sendInputs(l, di, clo, chi, first, ins, outs)
				cargs := lowerChunkArgs(n.cargs[di][:0], l.args, di, clo, chi)
				n.cargs[di] = cargs
				t0 := sp.Now()
				ev, res := q.EnqueueNDRangeKernel(k.ks[di], l.nd.Slice(clo, chi), cargs, ocl.LaunchOpts{
					Split: cfg.Kind == device.CPU && !r.opts.NoWorkGroupSplit && l.k.splitOK,
				})
				sp.Wait(ev)
				if res.Err != nil {
					fail(fmt.Errorf("core: device %d execution of %q: %w", di, k.Name, res.Err))
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
				rep.Subkernels++

				if err := n.shipChunk(l, di, clo, chi, outs, &res.Stats, wg); err != nil {
					fail(err)
					return
				}
				sizer.observe((sp.Now() - t0) / float64(c))
			}
		})
	}

	// Blocking kernel call: join every worker and every in-flight ship, then
	// cross-check and commit the host-rooted merge.
	wg.Wait(p)
	for _, in := range ins {
		r.bp.put(in.snap)
	}
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
	// entirely. Deltas go out when a later chunk needs them (§5.5).
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

// sendInputs enqueues on device di's app queue, ahead of its chunk [lo, hi],
// the pending bytes the chunk needs: at its first claim each read-only
// buffer's, at every claim each write-only buffer's inside the chunk's ship
// window, which the merge compares against orig (none if exact).
func (n *nway) sendInputs(l *launch, di, lo, hi int, first bool, ins []nwayIn, outs []*nwayOut) {
	r, q := n.r, n.r.app[di]
	for i := range ins {
		if in := &ins[i]; first && !in.written && r.flush(in.b, di, &in.snap, "refresh") {
			r.ctr.RefreshDeltas++
		}
	}
	for _, o := range outs {
		ps := &o.b.pend[di] // empty for a read-write buffer
		if ps.empty() {
			continue
		}
		off, end := shipWindow(l.el[o.idx], o.b.Size, l.nd, lo, hi)
		spans := ps.appendClip(nil, off, end)
		ps.subtractRange(off, end)
		switch {
		case o.exact || len(spans) == 0:
		case o.src != nil:
			r.sendSource(o.b, di, spans, o.src)
		default:
			q.EnqueueWriteBufferSpansTagged(o.b.bufs[di], spans, o.orig, "refresh")
			r.ctr.RefreshDeltas++
		}
	}
}

// shipChunk validates one completed chunk's dynamic writes against the
// certificate windows and ships each out buffer's narrowed byte range from
// device di to the host root, after the chunk on di's in-order queue,
// diff-merging from the device bytes as it lands; wg joins each ship.
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
		wg.Add(1)
		r.app[di].EnqueueReadBufferFunc(o.b.bufs[di], off, end-off, "ship", func(data []byte) {
			// Host-rooted diff-merge (§4.3): a word differing from orig was
			// computed by this chunk; equal words are untouched (sendInputs
			// made the window current) or recomputed identically elsewhere.
			// Transfers land one at a time, so the merge order is fixed.
			diffMergeChunk(data, o.orig, o.b.host.Own(true), off, o.exact, &o.dirty, &o.own[di])
			wg.Done()
		})
	}
	return nil
}
