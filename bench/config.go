package bench

// MetricDef names one metric, its unit and its direction. BENCHMARK.json
// repeats these lists (bench_test.go checks they agree) and adds the bounds.
type MetricDef struct {
	Name   string
	Unit   string
	Higher bool // higher is better
}

// EndToEnd are the metrics of an untraced run, the same for every workload.
var EndToEnd = []MetricDef{
	{"wall_s", "s", false},
	{"work_per_s", "1/s", true},
	{"setup_s", "s", false},
	{"alloc_mb", "MB", false},
	{"peak_rss_mb", "MB", false},
	{"coop_speedup", "x", true},
}

// PerLayer are the metrics of a traced run, the same for every workload.
// Times are drift-corrected host seconds like the end-to-end ones, but from
// one process and few repetitions: read them as shares of each other, and
// across commits with bench.calib_cv in view. Counts are exact.
var PerLayer = []MetricDef{
	// Front end, over the workload's distinct sources.
	{"clc.src_bytes", "count", false},
	{"clc.lex_s", "s", false},
	{"clc.parse_s", "s", false},
	{"clc.sema_s", "s", false},
	{"passes.transform_s", "s", false},
	{"passes.loop_checks", "count", true},
	{"analysis.summary_s", "s", false},
	// Launch-time footprint queries, once per launch.
	{"analysis.footprint_s", "s", false},
	{"analysis.footprint_calls", "count", false},
	// Bytecode compilation of the transformed GPU and CPU sources.
	{"vm.compile_s", "s", false},
	{"vm.compile_instrs", "count", false},
	{"vm.fused_frac", "frac", true},
	{"vm.wg_fuse_cov", "frac", true},
	// Every launch of the workload's apps straight through the VM.
	{"vm.exec_s", "s", false},
	{"vm.exec_ops", "count", false},
	{"vm.ns_per_op", "ns", false},
	{"vm.exec_wgs", "count", false},
	{"vm.wg_fallback_wgs", "count", false},
	{"vm.wg_strided_wgs", "count", true},
	{"vm.exec_closure_s", "s", false},
	{"vm.exec_interp_s", "s", false},
	{"vm.pool_speedup", "x", true},
	// Single-device runs of the apps: VM plus cost model, queue, event loop.
	{"device.single_cpu_s", "s", false},
	{"device.single_gpu_s", "s", false},
	{"device.overhead_s", "s", false},
	// Fixed replay of the event loop.
	{"sim.events_per_s", "1/s", true},
	{"sim.switch_ns", "ns", false},
	{"ocl.build_cold_s", "s", false},
	{"ocl.build_hit_s", "s", false},
	{"ocl.xfer_s", "s", false},
	// The cooperative runtimes: whole runs, and the replica's API spans.
	{"core.build_s", "s", false},
	{"core.twin_s", "s", false},
	{"core.nway_s", "s", false},
	{"core.twin_over_vm", "x", false},
	{"core.nway_over_vm", "x", false},
	{"core.enqueue_kernel_s", "s", false},
	{"core.write_s", "s", false},
	{"core.read_s", "s", false},
	// Simulated outcome of the workload's cooperative runs; a host-only
	// optimisation leaves every one of these identical.
	{"core.virt_ms", "sim_ms", false},
	{"core.subkernels", "count", false},
	{"core.gpu_aborted_wgs", "count", false},
	{"core.wasted_wg_frac", "frac", false},
	{"core.ship_bytes_skipped", "count", true},
	{"core.merge_words_elided", "count", true},
	{"core.uploads_skipped", "count", true},
	{"core.prime_copies_elided", "count", true},
	{"core.refresh_deltas", "count", false},
	{"core.refresh_bytes_skipped", "count", true},
	{"trace.cpu_busy_ms", "sim_ms", false},
	{"trace.gpu_busy_ms", "sim_ms", false},
	{"trace.overlap_frac", "frac", true},
	{"trace.link_busy_ms", "sim_ms", false},
	{"trace.bytes_h2d", "count", false},
	{"trace.bytes_d2h", "count", false},
	{"trace.bytes_refresh", "count", false},
	// Fixed replay: each baseline strategy once per quick-scale app, and the
	// paper-quick experiments, on the process-default engine.
	{"sched.single_s", "s", false},
	{"sched.static_s", "s", false},
	{"sched.oracle_s", "s", false},
	{"sched.socl_s", "s", false},
	{"sched.dmda_calibrate_s", "s", false},
	{"harness.fig13_s", "s", false},
	{"harness.fig16_s", "s", false},
	{"harness.table3_s", "s", false},
	{"polybench.construct_s", "s", false},
	{"polybench.verify_s", "s", false},
	// The Go runtime under the untraced body, per iteration.
	{"go.cpu_s", "s", false},
	{"go.gc_count", "count", false},
	{"go.gc_pause_ms", "ms", false},
	{"go.mallocs", "count", false},
	// The benchmark itself.
	{"bench.calib_ms", "ms", false},
	{"bench.calib_cv", "frac", false},
	{"bench.trace_overhead_frac", "frac", false},
}
