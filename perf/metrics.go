package perf

// Metric is one reported figure: its name and unit, exactly as
// BENCHMARK.json declares them (the contract test holds the two in
// step).
type Metric struct {
	Name, Unit string
}

// EndToEnd are the figures a user of the system sees, reported with
// tracing off. Simulated ones (cycles, Mops/s) are exact and must repeat
// bit for bit across repetitions; host ones are medians over them.
var EndToEnd = []Metric{
	{"throughput_mops", "Mops/s"},
	{"latency_p50_cycles", "cycles"},
	{"latency_p99_cycles", "cycles"},
	{"latency_p999_cycles", "cycles"},
	{"cycles_per_op", "cycles/op"},
	{"host_alloc_bytes_per_op", "B/op"},
	{"setup_s", "s"},
}

// PerLayer are the single-layer figures of the traced run. A workload
// that does not exercise a layer reports its figures as 0. Host CPU
// throughput and peak RSS are here rather than end-to-end: on a shared
// machine their run-to-run spread is wider than any bound worth
// declaring (see README.md).
var PerLayer = []Metric{
	{"kernel.crossings_per_op", "1/op"},
	{"kernel.call_cycles", "cycles"},
	{"kernel.reply_recv_cycles", "cycles"},
	{"kernel.mmap_cycles", "cycles"},
	{"kernel.munmap_cycles", "cycles"},
	{"kernel.yield_cycles", "cycles"},
	{"kernel.mmap_p99_cycles", "cycles"},
	{"kernel.doorbell_cycles_per_sqe", "cycles/sqe"},
	{"kernel.grant_pages_per_kop", "1/kop"},
	{"kernel.cycle_share", "ratio"},
	{"lock.acquisitions_per_op", "1/op"},
	{"lock.contended_ratio", "ratio"},
	{"lock.wait_cycles_per_op", "cycles/op"},
	{"lock.wait_share", "ratio"},
	{"mem.cache_hit_ratio", "ratio"},
	{"mem.refills_per_kop", "1/kop"},
	{"mem.drains_per_kop", "1/kop"},
	{"pm.steals_per_kop", "1/kop"},
	{"shmring.user_cycles_per_op", "cycles/op"},
	{"shmring.sqes_per_doorbell", "1/doorbell"},
	{"apps.kv_serve_cycles", "cycles"},
	{"apps.kv_hit_ratio", "ratio"},
	{"apps.kv_load_factor", "ratio"},
	{"cluster.failover_cycles", "cycles"},
	{"cluster.reinstate_cycles", "cycles"},
	{"cluster.retries_per_kreq", "1/kreq"},
	{"cluster.timeouts_per_kreq", "1/kreq"},
	{"cluster.misrouted_per_kreq", "1/kreq"},
	{"cluster.dropped_per_kreq", "1/kreq"},
	{"cluster.shed_ratio", "ratio"},
	{"cluster.lb_cycles_per_req", "cycles/req"},
	{"cluster.backend_cycles_per_req", "cycles/req"},
	{"mck.diff_us_per_step", "us/step"},
	{"mck.checked_us_per_step", "us/step"},
	{"mck.diff_alloc_bytes_per_step", "B/step"},
	{"mck.checked_alloc_bytes_per_step", "B/step"},
	{"mck.ok_step_ratio", "ratio"},
	{"error_ratio", "ratio"},
	{"latency_samples", "count"},
	{"trace.lock_wait_share.big", "ratio"},
	{"trace.lock_wait_share.container", "ratio"},
	{"trace.lock_wait_share.endpoint", "ratio"},
	{"trace.lock_wait_cycles.mmap", "cycles"},
	{"trace.lock_wait_cycles.munmap", "cycles"},
	{"trace.lock_wait_cycles.yield", "cycles"},
	{"trace.runq_delay_p99_cycles", "cycles"},
	{"trace.direct_switches_per_op", "1/op"},
	{"trace.ctx_switches_per_op", "1/op"},
	{"trace.cluster.queue_share", "ratio"},
	{"trace.cluster.link_share", "ratio"},
	{"trace.cluster.lb_share", "ratio"},
	{"trace.cluster.backend_share", "ratio"},
	{"trace.cluster.backoff_share", "ratio"},
	{"trace.cluster.latency_p999_exact_cycles", "cycles"},
	{"trace.host_overhead_ratio", "ratio"},
	{"host.ops_per_cpu_s", "ops/cpu-s"},
	{"host.max_rss_mb", "MiB"},
	{"host.cpu_share.kernel", "ratio"},
	{"host.cpu_share.spec", "ratio"},
	{"host.cpu_share.verify", "ratio"},
	{"host.cpu_share.mck", "ratio"},
	{"host.cpu_share.pt", "ratio"},
	{"host.cpu_share.mem", "ratio"},
	{"host.cpu_share.pm", "ratio"},
	{"host.cpu_share.hw", "ratio"},
	{"host.cpu_share.apps", "ratio"},
	{"host.cpu_share.cluster", "ratio"},
	{"host.cpu_share.netproto", "ratio"},
	{"host.cpu_share.shmring", "ratio"},
	{"host.cpu_share.obs", "ratio"},
	{"host.cpu_share.runtime", "ratio"},
	{"host.cpu_share.other", "ratio"},
}
