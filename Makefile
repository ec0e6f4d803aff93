GO ?= go

.PHONY: check fmt-check lint lint-json build vet test race checkptr fma-check fuzz bench-smoke bench bench-pairs traffic loc loc-check

# The fast CI gate: formatting, the internal/vm, internal/analysis,
# internal/harness, internal/sched, internal/device, internal/ocl,
# internal/core, internal/sim, internal/trace, internal/passes, internal/clc
# and cmd/fluidibench line ceilings, build, vet, tests, kernel lint,
# benchmark smoke. The
# race-detector suite is deliberately NOT in here — it reruns every
# experiment and takes many minutes, so CI runs `make race` as a separate
# parallel job instead of serializing it behind these fast gates. Run
# `make check race` locally for the full gate.
check: fmt-check loc-check build vet test lint lint-json bench-smoke

fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt: needs formatting:"; echo "$$files"; exit 1; fi

# Static kernel lint: built-in Polybench + merge kernels and on-disk .cl files.
lint:
	$(GO) run ./cmd/fluidilint -builtin $(wildcard examples/*/*.cl)

# The same sources through the machine-readable reporter: -json exits
# non-zero on any diagnostic (including the strided out-of-bounds lint), so
# CI fails on new findings; the JSON schema itself is pinned by Go tests.
lint-json:
	$(GO) run ./cmd/fluidilint -json -builtin $(wildcard examples/*/*.cl) >/dev/null

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Longer timeout: the harness package re-runs every experiment and can
# exceed go test's 600s per-package default on slow machines. Keep this in
# sync with `race` below.
test:
	$(GO) test -timeout 1800s ./...

# Longer timeout: the harness package re-runs every experiment and is far
# slower under the race detector than go test's 600s default allows.
race:
	$(GO) test -race -timeout 1800s ./...

# internal/vm's one unsafe conversion (f32View) and its address comparison
# (overlaps, the buffer-alias check) under the compiler's pointer checks,
# without waiting for `race`, which enables them too. The views are read by
# the reduction jam and by the bulk global steps, which TestWGContiguousAccess
# runs at non-zero word offsets (later groups, a view inside a larger array).
checkptr:
	$(GO) test -gcflags=all=-d=checkptr ./internal/vm

# No fused multiply-add in any non-test package on arm64, ppc64le, s390x or
# riscv64, the targets where Go may fuse x*y + z into one rounding: each is
# compiled from scratch (-a) with its assembly listed, and any fused mnemonic
# outside the script's allow-list of exact fusions fails the check (about a
# minute for the four).
fma-check:
	scripts/fma-check.sh

# Thirty seconds of native fuzzing: the differential suite (ref vs interp vs wg
# on generated kernels), then the topology spec parser, the one place a count
# from outside sizes an allocation, then the built-in merge against the VM
# running its source (random words, masks, windows and group sizes), then
# the front end (parse, print, analyze, check, compile) on arbitrary text,
# then ocl's device storage (shared, copied-on-write and recycled buffers
# against a plain-slice model), then the cooperative runtimes' outputs under
# drawn device speeds, topologies and options (FuzzTiming). The seeds alone
# run in every `go test`; this explores beyond them. The differential suite
# had ten seconds until FuzzTiming took five of them.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime 5s ./internal/vm
	$(GO) test -run '^$$' -fuzz '^FuzzParseTopology$$' -fuzztime 5s ./internal/device
	$(GO) test -run '^$$' -fuzz '^FuzzBuiltinMerge$$' -fuzztime 5s ./internal/device
	$(GO) test -run '^$$' -fuzz '^FuzzFrontEnd$$' -fuzztime 5s ./internal/clc
	$(GO) test -run '^$$' -fuzz '^FuzzBufferStorage$$' -fuzztime 5s ./internal/ocl
	$(GO) test -run '^$$' -fuzz '^FuzzTiming$$' -fuzztime 5s ./internal/core

# One iteration of the headline benchmark, as a does-it-still-run smoke.
bench-smoke:
	$(GO) test -bench 'BenchmarkOverall' -benchtime=1x -run '^$$' .

bench:
	$(GO) test -bench . -benchmem -benchtime=3x -run '^$$' .

# Pairs of bench/run.sh runs in an export of BASE and in the working tree,
# N of each, SECONDS seconds each, BASE first in odd pairs and the working
# tree first in even ones, with each pair's end-to-end metrics
# (BENCHMARK.json's end_to_end list), each side's median and quartiles and
# the count of pairs the working tree won on each (SEED=S picks the seed;
# default 1; LAYOUT=1 adds a layout control, BASE with one padding function,
# run between the two of every pair):
# make bench-pairs BASE=HEAD~1 WORKLOAD=coop-nway N=4.
BASE ?= HEAD
WORKLOAD ?= coop-pair
N ?= 5
SECONDS ?= 8
bench-pairs:
	bash scripts/bench-pairs.sh $(BASE) $(WORKLOAD) $(N) $(SECONDS)

# The program code no shipped traffic reaches: coverage-instrumented builds
# of flbench and fluidibench run every benchmark workload for a few seconds,
# full-scale `all` and three topologies' `-quick hash`, and the functions
# and blocks under internal/ that never ran are printed (a few minutes).
traffic:
	bash scripts/traffic-cover.sh

# Non-test Go lines per package under internal/ and cmd/ (internal/vmref, the
# AST referee and the kernel generators, is test infrastructure no non-test
# code imports) — the number the
# design-simplification ROADMAP items are judged by. (Performance is measured
# with `bash bench/run.sh`, see bench/README.md.)
loc:
	@for d in internal/* cmd/*; do \
		printf '%6d  %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" "$$d"; \
	done

# internal/vm may not grow: the ceiling is its non-test line count as of the
# last PR that shrank it, raised once since. Lower it when you delete code; a
# PR that has to raise it says why here. 7235 was the count with the per-step
# superinstructions, the third tracker-log state and the two small jams
# deleted (PR 23; 7873 before). PR 24 raised it by 120, the most its issue
# allowed, for the reduction loop's lowering (wgloop.go: copy propagation,
# compare folding and dead-definition removal over chains of skeleton
# blocks) and the two-pair leaf (wgfuse.go), after spending what they made
# unreachable (the bytecode walk, the wfused closure type, the per-trip term
# scan, the stride-1 special case): bench/ coop-pair wall_s 0.1230 -> 0.0919 s
# (-25.3 %, ten alternating pairs, 10/10), coop-nway -18.3 %, paper-quick
# -10.6 % (EXPERIMENTS.md, "The reduction loop, compiled"). 7066 (PR 25)
# is the count with one opcode table (optab.go) in place of the per-opcode
# case lists it restated: the banked-step switch, the register remap, the
# liveness use/def list, the disassembler's name map and formats, the
# compare-function tables and the dead opcode opGOFF. 6654 is the count
# with one admission certificate: the bytecode affine dataflow
# (wgcert.go's wgCertify, its abstract values and transfer function) and the
# per-region access lists it read are gone, and the strided disjointness
# certificate, given a one-slot fast path in internal/analysis, admits every
# launch the two did. 6610 is that count with the random kernel generators
# (gen.go, 296 lines, test infrastructure) moved out to internal/vmref, and
# group-uniform steps (wguniform.go), the full-group store's once-per-step
# bookkeeping and a per-site index that keeps the columnar log's broadcast
# runs O(1) added in their place. 5964 is that count with the AST referee
# (ref.go, 688 lines, test infrastructure) moved out to internal/vmref, and
# the reduction loop plan run for any set of lanes, not only for the whole
# group of a phase that never partitioned, added in its place (+42). 5964
# stays the count with the loop walk's period skip (wgloop.go: the period
# log, the window check, the closed-form advance, the check that every
# skeleton load of a site reads the word of that site's latest broadcast
# run, about 135 lines) paid for by the skeleton's lowering (copy
# propagation, compare and notb folding, the dead-definition pass, the
# lowered op type and the constant slots: the walk now runs the skeleton's
# own instructions) and by Disasm gathering its annotations and region
# markers in two maps. 5963 is the count with lane-contiguous global loads
# and stores in bulk (contig: one word-view copy, one lane-affine log entry,
# one undo span per whole-group access; the undo log's spans), paid for by
# one per-lane loop per global step where there were three (the load's
# float and int whole-group loops and the loop over a partial set; the
# store's whole-group and partial-set loops), by the broadcast run becoming
# the step-0 case of the lane-affine entry (one recorder, one bookCol path),
# and by the undo log's one record kind. 5960 is the count with the
# transposed tracker's locality state kept per access site (one seen flag,
# and a lane-affine site's offsets in closed form, in place of a flag per
# site and lane and of the booked flag), paid for by the columnar log's
# column taken with append (colFor, which also owns the whole-group check
# both global steps made), the machine's per-item and private slabs and the
# group's local arrays sized by the one grow-and-clear helper, and the
# branch's uniformity scan comparing each lane with lane 0. 5953 is the count
# with a group's registers set up once per launch (wmach.enter: the launch
# key, the cached item list and the two entry masks from the liveness pass),
# paid for by one local- and private-array access (slabAccess) in place of
# the interpreter's eight cases and the banked slab step's own decoding.
# 5877 is the count with every kernel compiled for the lockstep engine:
# private slabs start zeroed per work-item in both engines, so the
# interpreter's barrier-free single-state driver (wiState.reset, singleFor,
# wgScratch.single), buildWG's two shape rejects, WGRejShape, execWG's nil
# guard and Disasm's are gone, and statesFor is the one place that
# allocates an interpreter state (allocPriv and newState folded into it).
# 5850 is the count with the lockstep engine running every launch: a group
# the certificate rejects runs in one-lane sets in work-item order (the
# serial flag, about ten lines in runGroup), so the interpreter is only the
# referee tests select, and ParseBackend, FLUIDICL_BACKEND (init,
# BackendEnvErr) and the interpreter's inline float-to-int copy (now
# clc.FloatToInt, the one rule) are gone. 5950 is that count with the
# lane-blocked dot leaves (wgfuse.go: while a phase is uniform, blocks of
# eight lanes run trip-major on four leaves that load a lane-uniform factor
# once per trip into eight named accumulators, behind the block's proof, its
# lane-form test and the rerun of a block that met a NaN), raised by 100,
# the most its issue allowed and what PR 24's leaf was given: the leaves
# cost about 135 lines, paid in part by wgDot1 and wgDot2 (34) and by
# merging the block's stride, offset and seed tests into one pass each;
# the interpreter's step count moved into wiState (the budget is per run
# on every engine) for two more. coop-pair wall_s 0.0663 -> 0.0568 s
# (-14.4 %, ten alternating pairs, 10/10; seed 43: -15.3 %, 10/10). 6000 is
# that count with the per-step blocks forwarded (wg.go's wgForward: reads
# through in-block copies, constant dimensions as immediates; wgUniform's
# walk dropping the dead copies and constants) and a trap booking its
# phase's locality (endPhase, fail, colTrap), raised by 50, the most its
# issue allowed: the pass and the trap path cost about 105 lines, paid in
# part by hoistUniform folded into buildSteps, one step for iadd, isub and
# imul and one for the four float ops (a switch on the opcode where there
# were seven closures), one dimension step for constant and register
# dimensions, the uniform load writing lane 0 for wstepOnce's one broadcast
# (put is gone) and buildWBlock's one body end; the rest, the forwarding walk
# itself and the trap's replay, could not go. 5976 is the count with one
# locality form: each access site keeps one log of entries booked at the
# phase end (whole-group entries column-major, per-item ones after a stable
# counting sort), in place of the per-item streams and their memTracker
# replay, the transposition at the first partition, the trap's stream
# surgery and the reduction jam's closed-form booking into transposed
# state; it includes the one NaN rule (storeBits, the leaves' rerun gone),
# the local ids as one column per dimension and the walk's skip in
# partitioned phases (the load count it needed is gone).
VM_LOC_MAX = 5976
# internal/analysis walks each kernel once. 3173 was the count with two AST
# walks, an abstract interpreter (interp.go) for access direction, index
# classes, slot-exactness and divergence beside the strided walker. 2735 is
# the count with the strided walker alone deriving all of those from its
# refs, rejects and one per-value bit for work-item dependence.
ANALYSIS_LOC_MAX = 2735
# internal/harness writes the evaluation's one pattern once: a table is a
# grid of strategies over benchmarks, normalised by one ratio writer. 1055
# was the count with a cell loop of its own in each of twelve tables; 867 is
# the count with one grid under all of them. 878 is that count with each
# table carrying the tally of the FluidiCL runs it counted first, summed by
# the grid in slot order (the process-wide accumulators it replaces were in
# core and trace, which shrank by more), and the unused Runner.All gone.
# It stayed 878 when the tally became Runs and a trace.Summary, paid for by
# CSV writing its header as a row.
HARNESS_LOC_MAX = 878
# internal/sched has one host program for its four strategies. 1047 was the
# count with a host driver each for the cooperative runs, single devices,
# static splits and SOCL; 973 is the count with one driver, one two-device
# tracker and one argument lowering. 971 is that count with the sweep's plain
# records (CPU-only, GPU-only and SOCL share one per launch) paid for by the
# cooperative runs' argument switch becoming the one generic lowering, and
# by the dmda model's per-device loop and the SOCL scheduler's idle clocks
# written as small indexed values. 955 is that count with the text-only
# timeline entry point gone: `fluidibench trace` reads the recorder. 953 is
# that count with no fold of each run into process-wide totals: a run's
# counters and summary travel only on its Result. 950 is that count with the
# static split's merge launch and per-launch scratch gone (ocl.EnqueueMerge,
# per-buffer scratch, the ship through the host shadow) and every baseline
# releasing its storage (recycle). 949 is that count with
# RunFluidiCLTraced gone (RunTopologyTraced on cpu+gpu runs the twin) and the
# summary's per-device work-groups filled from the kernel reports. 898 is that
# count with static splits launching passes.Transform's guarded form (the
# guard cache and its own copy of the pipeline gone).
SCHED_LOC_MAX = 898
# internal/device simulates the devices and serves launches from sweep
# records and built-in kernels. 1312 is the count with the plain record (an
# unguarded kernel's launches over the whole grid, keyed on every argument),
# the wait for a group another run is recording, and the built-in fcl_merge
# (merge.go: the diff-merge and its Stats counted from the lanes in range and
# the lanes that differ). 1308 is that count with no per-launch engine: a
# launch runs on the process default, and the engine left the record's key.
# 1307 is that count with the meter told no launch counts.
DEVICE_LOC_MAX = 1307
# internal/ocl is the vendor-runtime API over one device. 599 is the count
# with built-in kernel selection: a kernel created by name from a program
# built from passes.MergeKernelSource carries device.MergeGroup. 595 is that
# count with no per-launch engine in LaunchOpts; it stayed 595 when Store
# (the handed-over whole write, shared with core's host shadow) and the
# free-list test hook Listed came in and ZeroBytes folded into Own. 589 is
# that count with EnqueueWriteBufferTagged folded into its one caller,
# EnqueueWriteBuffer. 575 is that count with Buffer.Free gone (Recycle is
# the only code that fills the free list), CreateBufferOn added for the
# twin's pooled merge scratch, and EnqueueWriteBufferAt and
# EnqueueReadBufferAt folded into their labelled forms. 574 is that count
# with EnqueueMerge, the one launch of the built-in fcl_merge, paid for by the
# source-text rule in CreateKernel, EnqueueMarker (folded into Finish),
# Buffer.Ctx and a Program that is its cached compilation. 571 is that
# count with EnqueueReadBufferAtTagged replaced by EnqueueReadBufferFunc,
# which hands the device bytes to a callback (N-way ships merge from them).
OCL_LOC_MAX = 571
# internal/core runs two cooperation protocols over one substrate. 2824 was
# the count with the twin protocol's own residency beside N-way's: location
# flags, a stale-GPU upload, a direct CPU refresh, per-ship staging buffers
# and a protocol write per buffer. 2780 is the count with one residency for
# both: per-device pending byte sets flushed by one launch prologue, one
# host write, and the byte and span pools on the runtime. 2691 is that count
# with one owner each for the engine choice (the process default, not an
# Options field) and for the twin's decision record (the recorder's runtime
# track, not a second text-only Trace), and the refresh tallies booked once,
# in Counters. 2690 is that count with the wg_cert_reject_shape key gone.
# 2666 is that count with no process-wide counter total: Counters are values
# that a caller sums (Add), and no snapshot reads a global. 2665 is that
# count with host writes handed over: the host shadow is an ocl.Buffer in
# the device copies' three storage states, and the write snapshots are gone.
# 2543 is that count with the two analyzer certificates no workload reached
# gone: the stale-output upload skip (the full-overwrite elision, settle,
# checkFullOverwrite, the protocols' stale checks and N-way's commit-time
# subtract) and the launch-time split un-veto (SplitsUnvetoed); the
# intervalSet methods only tests called, subtract and bytes, left with it.
# 2500 is that count with one scratch pool per run: the twin's GPU merge
# scratch owns slices of the runtime's byte pool, and its bufferPool (with
# the trim) and the protocols' drain are gone. 2482 is that count with the
# twin's merge kernel, its build and hand-built launch gone (ocl.EnqueueMerge).
# It stayed 2482 when N-way came to send bytes only where a device works
# (host writes booked as pending, read-only buffers at first claim,
# write-only ones per ship window), paid for by spanPool and
# intervalSet.subtractSpans going and by ships merging in their transfer.
# 2477 is that count with the twin filling KernelReport.DeviceWGs (CPU, GPU)
# like N-way, and its "enqueue kernel" instant recorded by the twin itself,
# so the substrate no longer asks which protocol narrates. 2407 is that count
# with one source pipeline, passes.Transform: the transform cache and its
# entry and the CPU variant's own parse, analysis and print are gone, and the
# launch-plan cache is found by kernel summary.
CORE_LOC_MAX = 2407
# internal/sim is the discrete-event engine under every device and runtime.
# 480 is the count with one wake channel per process (the engine sends true
# to run it, shutdown closes it to unwind it) and no per-process Done event:
# the one process that was joined fires its own event as its last act.
SIM_LOC_MAX = 480
# cmd/fluidibench is the command line over the harness and the runtimes.
# 765 was the count with two -dist tables, a pair-only one (CPU and GPU
# columns, overlap, the VM columns) and a per-device one for -topology, and
# a -trace summary of each kind. 694 is the count with one per-device table
# on every machine (co-exec in place of overlap) and one -trace summary.
# 688 is that count with -dist reading the summary's work-group counts.
FLUIDIBENCH_LOC_MAX = 688
# internal/trace is the recorder, its Chrome export and the meter. 465 was
# the count with the meter's launch tallies and trace.Rollup; 403 is the
# count with trace.Summary the one aggregate and DeviceMeter.WGs filled
# from the kernel reports. 402 is that count with a stale comment gone.
TRACE_LOC_MAX = 402
# internal/passes is the source-to-source transforms and the one pipeline
# over them. 479 is the count with passes.Transform, which builds every
# transformed form once per (source, options), in place of the copies in
# core, sched and a vm test helper.
PASSES_LOC_MAX = 479
# internal/clc is the MiniCL front end. 2860 is the count with one desugaring
# of k++, ++k, k-- and --k in parseSimpleStmt (the for-loop post's own
# prefix parser and the shallow lvalue copy gone).
CLC_LOC_MAX = 2860
# The packages loc-check holds to their ceilings, as dir:ceiling pairs.
LOC_CEILINGS = internal/vm:$(VM_LOC_MAX) internal/analysis:$(ANALYSIS_LOC_MAX) \
	internal/harness:$(HARNESS_LOC_MAX) internal/sched:$(SCHED_LOC_MAX) \
	internal/device:$(DEVICE_LOC_MAX) internal/ocl:$(OCL_LOC_MAX) \
	internal/core:$(CORE_LOC_MAX) internal/sim:$(SIM_LOC_MAX) \
	internal/trace:$(TRACE_LOC_MAX) cmd/fluidibench:$(FLUIDIBENCH_LOC_MAX) \
	internal/passes:$(PASSES_LOC_MAX) internal/clc:$(CLC_LOC_MAX)
loc-check:
	@for dc in $(LOC_CEILINGS); do \
		d=$${dc%:*}; max=$${dc#*:}; \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		if [ $$n -gt $$max ]; then \
			echo "loc-check: $$d has $$n non-test lines, ceiling is $$max"; exit 1; fi; \
	done
