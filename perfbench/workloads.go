package main

import (
	"time"

	"repro/internal/workload"
)

// Settings every workload shares.
const (
	records  = 20_000 // YCSB keys
	sessions = 2      // client sessions driving load
	// Periodic checkpoint GC, identical in every workload: replica state
	// would otherwise grow with every commit, and heap and map costs would
	// depend on how far into the run a figure was taken. Twelve cycles fit
	// a 25 s window. At 1 s, durable checkpoints stall rwz-wal-tcp for a
	// quarter or more of its arrivals, which puts its median on the edge
	// between stalled and unstalled transactions.
	checkpointEvery = 2 * time.Second
	deltaMicros     = 250_000 // δ; the GC watermark trails the clock by 2δ
)

// spec is one workload.
type spec struct {
	name, why string
	gen       func() workload.Generator
	tcp       bool // TCPLoopback transport (else in-process Local)
	durable   bool // replicas log to a WAL under the run's data directory
	batch     int  // reply-signature batch size b
	// rate is the open-loop arrival rate in tx/s; 0 runs a closed loop
	// of sessions clients.
	rate float64
	// ungated workloads run from the command line and in -suite but are
	// not in BENCHMARK.json, so no bound applies to them.
	ungated bool
}

// rwz is the deployment-path workload's transaction mix.
func rwz() workload.Generator {
	return workload.NewYCSB(workload.YCSBConfig{Keys: records, ReadOps: 2, WriteOps: 2, Theta: 0.9})
}

// rwzRate is rwz-wal-tcp-open's fixed arrival rate, about 40% of the
// 115 tx/s rwz-wal-tcp commits in its closed loop of two sessions (2-CPU
// x86-64 host, Go 1.24).
const rwzRate = 45

// specs are the workloads. rwz-wal-tcp is gated as a closed loop: open,
// its median is the share of arrivals caught behind the ~300 ms stall
// of six durable replicas checkpointing together, and on a shared 2-CPU
// host that share swings with the host's load (median 12 to 62 ms across
// ten runs). The open-loop variant keeps those stalls visible as latency
// and is reported without a bound.
var specs = []spec{
	{
		name: "rwu-mem",
		why:  "CPU-bound protocol core: 2 reads + 2 read-modify-writes, uniform keys, in-memory replicas on the Local transport, b=1, closed loop",
		gen: func() workload.Generator {
			return workload.NewYCSB(workload.YCSBConfig{Keys: records, ReadOps: 2, WriteOps: 2})
		},
		batch: 1,
	},
	{
		name:  "read8-mem",
		why:   "read path: read-only transactions of 8 uniform reads on the rwu-mem cluster, closed loop; read fan-out and signed read replies dominate",
		gen:   func() workload.Generator { return workload.ReadOnlyYCSB(records, 8) },
		batch: 1,
	},
	{
		name:    "rwz-wal-tcp",
		why:     "deployment path: 2R+2W Zipf 0.9 over TCP loopback, WAL fsync per vote, b=16 batch window, closed loop; codec, sockets, checkpoints and contention",
		gen:     rwz,
		tcp:     true,
		durable: true,
		batch:   16,
	},
	{
		name:    "rwz-wal-tcp-open",
		why:     "rwz-wal-tcp under open-loop Poisson arrivals at 45 tx/s (about 40% of capacity), latency from intended arrival; ungated",
		gen:     rwz,
		tcp:     true,
		durable: true,
		batch:   16,
		rate:    rwzRate,
		ungated: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metricDef names one reported metric. For per-layer metrics, moves is
// the interaction map: the end-to-end metric and workload the layer
// figure should move.
type metricDef struct {
	name, unit, better, layer, moves string
}

// endToEnd are the untraced run's metrics. Failure and abort shares are
// reported as their complements so that no metric reads 0. The p99
// commit latency is reported beside them (see tailLatency) but carries
// no bound: on rwz-wal-tcp it is the length of the durable checkpoint
// stall, whose run-to-run spread on a shared 2-CPU host exceeds any
// bound the benchmark may set.
var endToEnd = []metricDef{
	{name: "tput_txs", unit: "tx/s", better: "higher"},
	{name: "lat_p50_ms", unit: "ms", better: "lower"},
	{name: "commit_share", unit: "ratio", better: "higher"},  // 1 − abort_rate
	{name: "success_share", unit: "ratio", better: "higher"}, // 1 − fail_frac
	{name: "cpu_ms_per_tx", unit: "ms/tx", better: "lower"},
	{name: "heap_peak_mb", unit: "MiB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer are the traced run's metrics.
var perLayer = []metricDef{
	{"client.read_us_p50", "us", "lower", "client", "lat_p50_ms @ read8-mem"},
	{"client.read_us_p99", "us", "lower", "client", "lat_p50_ms @ read8-mem"},
	{"client.commit_us_p50", "us", "lower", "client", "lat_p50_ms @ rwu-mem; lat_p99_ms @ rwz-wal-tcp"},
	{"client.commit_us_p99", "us", "lower", "client", "lat_p50_ms @ rwu-mem; lat_p99_ms @ rwz-wal-tcp"},
	{"client.prepare_us_p50", "us", "lower", "client", "lat_p50_ms @ rwu-mem; lat_p99_ms @ rwz-wal-tcp"},
	{"client.st2_us_p50", "us", "lower", "client", "lat_p50_ms @ rwu-mem; lat_p99_ms @ rwz-wal-tcp"},
	{"client.writeback_us_p50", "us", "lower", "client", "lat_p50_ms @ rwu-mem; lat_p99_ms @ rwz-wal-tcp"},
	{"client.fastpath_share", "ratio", "higher", "client", "lat_p99_ms, tput_txs @ rwz-wal-tcp"},
	{"client.attempts_per_commit", "count", "lower", "client", "commit_share, lat_p99_ms @ rwz-wal-tcp"},
	{"client.backoff_ms_per_tx", "ms/tx", "lower", "client", "commit_share, lat_p99_ms @ rwz-wal-tcp"},
	{"client.recoveries_per_ktx", "1/ktx", "lower", "client", "success_share, lat_p99_ms @ rwz-wal-tcp"},
	{"client.read_retries_per_ktx", "1/ktx", "lower", "client", "success_share, lat_p99_ms @ rwz-wal-tcp"},
	{"client.overloads_per_ktx", "1/ktx", "lower", "client", "success_share, lat_p99_ms @ rwz-wal-tcp"},
	{"transport.msgs_per_tx", "count", "lower", "transport", "cpu_ms_per_tx @ rwu-mem"},
	{"transport.queue_us_p50", "us", "lower", "transport", "lat_p50_ms @ rwz-wal-tcp"},
	{"transport.queue_us_p99", "us", "lower", "transport", "lat_p50_ms @ rwz-wal-tcp"},
	{"replica.dispatch_wait_us_p50", "us", "lower", "replica", "lat_p99_ms @ rwu-mem"},
	{"replica.dispatch_wait_us_p99", "us", "lower", "replica", "lat_p99_ms @ rwu-mem"},
	{"replica.deliver_read_us_p50", "us", "lower", "replica", "cpu_ms_per_tx @ read8-mem"},
	{"replica.deliver_st1_us_p50", "us", "lower", "replica", "cpu_ms_per_tx @ rwu-mem"},
	{"replica.deliver_st2_us_p50", "us", "lower", "replica", "cpu_ms_per_tx @ rwu-mem"},
	{"replica.deliver_writeback_us_p50", "us", "lower", "replica", "cpu_ms_per_tx @ rwu-mem"},
	{"replica.busy_ms_per_tx", "ms/tx", "lower", "replica", "tput_txs, cpu_ms_per_tx @ rwu-mem, read8-mem"},
	{"replica.dep_waits_per_ktx", "1/ktx", "lower", "replica", "lat_p99_ms, success_share @ rwz-wal-tcp"},
	{"replica.shed_per_ktx", "1/ktx", "lower", "replica", "lat_p99_ms, success_share @ rwz-wal-tcp"},
	{"replica.txstates_peak", "count", "lower", "replica", "heap_peak_mb @ all"},
	{"cryptoutil.verifies_per_tx", "count", "lower", "cryptoutil", "cpu_ms_per_tx @ rwu-mem, read8-mem"},
	{"cryptoutil.signs_per_tx", "count", "lower", "cryptoutil", "cpu_ms_per_tx @ rwu-mem, read8-mem"},
	{"cryptoutil.verify_us_p50", "us", "lower", "cryptoutil", "lat_p50_ms @ rwu-mem"},
	{"store.check_us_p50", "us", "lower", "store", "lat_p50_ms @ rwz-wal-tcp"},
	{"store.prepare_ok_share", "ratio", "higher", "store", "commit_share @ rwz-wal-tcp"},
	{"store.rts_rejections_per_ktx", "1/ktx", "lower", "store", "commit_share @ rwz-wal-tcp"},
	{"store.versions_peak", "count", "lower", "store", "heap_peak_mb @ all"},
	{"store.gc_collected_per_tx", "count", "higher", "store", "heap_peak_mb @ all"},
	{"wal.appends_per_tx", "count", "lower", "wal", "lat_p50_ms @ rwz-wal-tcp"},
	{"wal.fsyncs_per_append", "ratio", "lower", "wal", "lat_p50_ms @ rwz-wal-tcp"},
	{"wal.append_us_p50", "us", "lower", "wal", "lat_p50_ms, lat_p99_ms @ rwz-wal-tcp"},
	{"wal.append_us_p99", "us", "lower", "wal", "lat_p50_ms, lat_p99_ms @ rwz-wal-tcp"},
	{"wal.fsync_us_p50", "us", "lower", "wal", "lat_p50_ms, lat_p99_ms @ rwz-wal-tcp"},
	{"checkpoint.count", "count", "lower", "replica", "lat_p99_ms, heap_peak_mb @ rwz-wal-tcp; cpu_ms_per_tx @ rwu-mem"},
	{"checkpoint.ms_p50", "ms", "lower", "replica", "lat_p99_ms, heap_peak_mb @ rwz-wal-tcp; cpu_ms_per_tx @ rwu-mem"},
	{"checkpoint.ms_max", "ms", "lower", "replica", "lat_p99_ms, heap_peak_mb @ rwz-wal-tcp; cpu_ms_per_tx @ rwu-mem"},
	{"runtime.alloc_kb_per_tx", "KiB/tx", "lower", "runtime", "cpu_ms_per_tx, lat_p99_ms @ all"},
	{"runtime.gc_per_ktx", "1/ktx", "lower", "runtime", "cpu_ms_per_tx, lat_p99_ms @ all"},
	{"loadgen.lag_ms_p99", "ms", "lower", "benchmark", "validity of rwz-wal-tcp-open"},
	{"trace.overhead_pct", "%", "lower", "trace", "none (reported)"},
}
