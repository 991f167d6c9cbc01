package main

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the library sees and that hold
// still from run to run on a shared machine; every workload reports all
// of them. The wall-clock rates and latencies do not hold still there
// and are per-layer metrics (wall.*). BENCHMARK.json declares the same
// list.
var endToEnd = []metricDef{
	{"alloc_B_per_op", "B"},
	{"allocs_per_op", "count"},
	{"mem_retained_MB", "MB"},
	{"setup_s", "s"},
	{"virt_us_p50", "us"},
}

// Drivers and transmission modules the per-layer metrics break down by.
var (
	coreDrivers = []string{"sisci", "bip", "tcp", "via", "rdma"}
	coreTMs     = []string{
		"bip-short", "bip-long", "sisci-short", "sisci-pio", "sisci-dual",
		"tcp", "via-short", "via-large", "rdma-eager", "rdma-rdv",
		"rail-stripe", "rail-express",
	}
)

// perLayer lists the per-layer metrics of a traced run. Every traced run
// prints all of them; a layer the workload does not reach reads 0.
// BENCHMARK.json declares the same list.
func perLayer() []metricDef {
	defs := []metricDef{
		{"wall.ops_per_s", "1/s"},
		{"wall.payload_MBps", "MB/s"},
		{"wall.op_p50_us", "us"},
		{"wall.op_p99_us", "us"},
		{"wall.cpu_us_per_op", "us"},
		{"setup.world_ms", "ms"},
		{"setup.channel_ms", "ms"},
		{"setup.fwd_ms", "ms"},
		{"setup.coll_ms", "ms"},
		{"setup.heap_retained_MB_per_world", "MB"},
		{"bip.raw.rt_us_p50", "us"},
	}
	for _, d := range coreDrivers {
		p := "core." + d + "."
		defs = append(defs,
			metricDef{p + "send_us_p50", "us"},
			metricDef{p + "recv_wait_us_p50", "us"},
			metricDef{p + "recv_us_p50", "us"},
			metricDef{p + "allocs_per_msg", "count"},
			metricDef{p + "alloc_B_per_msg", "B"},
		)
	}
	defs = append(defs, metricDef{"core.commits_per_msg", "count"})
	for _, tm := range coreTMs {
		defs = append(defs, metricDef{"core.tm_blocks." + tm, "count"})
	}
	defs = append(defs,
		metricDef{"rail.tcp-x2.alloc_B_per_msg", "B"},
		metricDef{"rail.tcp-x2.rt_us_p50", "us"},
		metricDef{"mpi.sisci.rt_us_p50", "us"},
		metricDef{"mpi.allocs_per_msg", "count"},
		metricDef{"nexus.sisci.rsr_us_p50", "us"},

		metricDef{"async.submit_us_p50", "us"},
		metricDef{"async.cq_wait_ms_per_round", "ms"},
		metricDef{"async.conv_us_p50", "us"},
		metricDef{"async.conv_us_p99", "us"},
		metricDef{"async.parked_lease_ratio", "ratio"},
		metricDef{"async.runq_max", "count"},
		metricDef{"async.occupancy_max", "count"},
		metricDef{"async.cq_depth_max", "count"},

		metricDef{"fwd.retransmit_ratio", "ratio"},
		metricDef{"fwd.goodput_ratio", "ratio"},
		metricDef{"fwd.nack", "count"},
		metricDef{"fwd.backoff", "count"},
		metricDef{"fwd.drop.crc", "count"},
		metricDef{"fault.dropped", "count"},
		metricDef{"fault.corrupted", "count"},

		metricDef{"coll.alltoallv_us_p50", "us"},
		metricDef{"coll.alltoallv_us_p99", "us"},
		metricDef{"coll.allreduce_us_p50", "us"},
		metricDef{"coll.gather_us_p50", "us"},
		metricDef{"coll.rank_skew_us_p50", "us"},
		metricDef{"coll.msgs_per_op", "count"},
		metricDef{"coll.bytes_per_op", "B"},
	)
	for _, leg := range rpcLegs {
		defs = append(defs,
			metricDef{"virt." + leg.name + ".oneway_us", "us"},
			metricDef{"virt." + leg.name + ".min_oneway_us", "us"})
	}
	defs = append(defs,
		metricDef{"virt.rail.tcp-x2.oneway_us", "us"},
		metricDef{"virt.fabric.makespan_us_p50", "us"},
		metricDef{"virt.async.conv_us_p50", "us"},

		metricDef{"runtime.gc_cycles_per_s", "1/s"},
		metricDef{"runtime.gc_pause_ms", "ms"},

		metricDef{"trace.ops_per_s", "1/s"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.spans_per_op", "count"},
	)
	for _, layer := range []string{"bench", "bip", "core", "mpi", "nexus", "async", "coll"} {
		defs = append(defs, metricDef{"self." + layer + ".us_per_op", "us"})
	}
	return append(defs, metricDef{"fail_ratio", "ratio"})
}
