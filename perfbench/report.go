package main

import (
	"math"
	"slices"
	"time"

	pm "repro/internal/metrics"
)

// window summarizes the measure window from the transaction records.
type window struct {
	secs     float64
	commits  int       // transactions that committed inside the window
	lat      []float64 // their latencies, ns: from intended arrival (open) or first invocation (closed)
	backoff  time.Duration
	attempts int // attempts that ended inside the window
	aborts   int // of those, ended by ErrAborted or ErrTimeout
	offered  int // transactions issued (or due) inside the window
	failed   int // of those, never committed (see txRec.failed)
}

func (p *phase) window() window {
	w := window{secs: (p.b.wall - p.a.wall).Seconds()}
	for _, r := range p.recs {
		if r.committed() && p.inWindow(r.done) {
			w.commits++
			w.lat = append(w.lat, float64(r.done-r.due))
			w.backoff += r.backoff
		}
		if r.attempts == 0 && !r.dropped {
			continue
		}
		if p.inWindow(r.due) {
			w.offered++
			if r.failed() {
				w.failed++
			}
		}
	}
	for _, s := range p.sessions {
		for _, a := range s.attempts {
			if p.inWindow(a.end) {
				w.attempts++
				if a.out == outAbort || a.out == outTimeout {
					w.aborts++
				}
			}
		}
	}
	return w
}

// endToEndMetrics computes the untraced run's metrics.
func (p *phase) endToEndMetrics(w window) map[string]float64 {
	if w.commits == 0 || w.attempts == 0 || w.offered == 0 {
		p.violate("no transactions committed in the measure window")
		return nil
	}
	setup := make([]float64, len(p.setup))
	for i, d := range p.setup {
		setup[i] = d.Seconds()
	}
	return map[string]float64{
		"tput_txs":      float64(w.commits) / w.secs,
		"lat_p50_ms":    quantile(w.lat, 0.50) / 1e6,
		"commit_share":  1 - float64(w.aborts)/float64(w.attempts),
		"success_share": 1 - float64(w.failed)/float64(w.offered),
		"cpu_ms_per_tx": ms(p.b.cpu-p.a.cpu) / float64(w.commits),
		"heap_peak_mb":  float64(p.smp.heapPeak) / (1 << 20),
		"setup_s":       quantile(setup, 0.5),
	}
}

// tailLatency returns the p99 commit latency in ms, or nil when fewer
// than ten samples lie beyond it.
func (w window) tailLatency() any {
	if len(w.lat) < 1000 {
		return nil
	}
	return quantile(w.lat, 0.99) / 1e6
}

// perLayerMetrics computes the traced run's metrics; untracedTput is the
// companion untraced run's throughput, for the tracing overhead.
func (p *phase) perLayerMetrics(w window, untracedTput float64) map[string]float64 {
	if w.commits == 0 {
		p.violate("no transactions committed in the measure window")
		return nil
	}
	n := float64(w.commits)
	perTx := func(d uint64) float64 { return float64(d) / n }
	perKtx := func(d uint64) float64 { return 1000 * float64(d) / n }
	from, to := p.a.wallUnixNano, p.b.wallUnixNano
	spanQ := func(name string, q float64) float64 { return quantile(p.spans.window(name, from, to), q) / 1e3 }
	reg := p.b.registry.Sub(p.a.registry)
	histQ := func(name, labels string, q float64) float64 { return hist(reg, name, labels).Quantile(q) }
	callQ := func(calls []interval, q float64) float64 {
		var xs []float64
		for _, c := range calls {
			if p.inWindow(c.end) {
				xs = append(xs, float64(c.end-c.start))
			}
		}
		return quantile(xs, q) / 1e3
	}
	var reads, commits []interval
	for _, s := range p.sessions {
		reads = append(reads, s.reads...)
		commits = append(commits, s.commits...)
	}
	a, b := p.a, p.b
	var busy uint64
	for _, h := range reg.Hists {
		if h.Name == "basil_replica_deliver_latency_seconds" {
			busy += h.Hist.SumNanos
		}
	}
	msgs := perTx(b.policyCalls - a.policyCalls)
	if p.spec.tcp {
		msgs = float64(len(p.spans.window("net.queue", from, to))) / n
	}
	ckpt := hist(reg, "basil_replica_checkpoint_seconds", "")
	m := map[string]float64{
		"client.read_us_p50":               callQ(reads, 0.50),
		"client.read_us_p99":               callQ(reads, 0.99),
		"client.commit_us_p50":             callQ(commits, 0.50),
		"client.commit_us_p99":             callQ(commits, 0.99),
		"client.prepare_us_p50":            spanQ("client.prepare", 0.5),
		"client.st2_us_p50":                spanQ("client.st2", 0.5),
		"client.writeback_us_p50":          spanQ("client.writeback", 0.5),
		"client.fastpath_share":            ratio(b.fast-a.fast, b.fast-a.fast+b.slow-a.slow),
		"client.attempts_per_commit":       float64(w.attempts) / n,
		"client.backoff_ms_per_tx":         ms(w.backoff) / n,
		"client.recoveries_per_ktx":        perKtx(b.recoveries - a.recoveries),
		"client.read_retries_per_ktx":      perKtx(b.readRetries - a.readRetries),
		"client.overloads_per_ktx":         perKtx(b.overloads - a.overloads),
		"transport.msgs_per_tx":            msgs,
		"transport.queue_us_p50":           spanQ("net.queue", 0.5),
		"transport.queue_us_p99":           spanQ("net.queue", 0.99),
		"replica.dispatch_wait_us_p50":     spanQ("replica.dispatch_wait", 0.5),
		"replica.dispatch_wait_us_p99":     spanQ("replica.dispatch_wait", 0.99),
		"replica.deliver_read_us_p50":      histQ("basil_replica_deliver_latency_seconds", `kind="read"`, 0.5) / 1e3,
		"replica.deliver_st1_us_p50":       histQ("basil_replica_deliver_latency_seconds", `kind="st1"`, 0.5) / 1e3,
		"replica.deliver_st2_us_p50":       histQ("basil_replica_deliver_latency_seconds", `kind="st2"`, 0.5) / 1e3,
		"replica.deliver_writeback_us_p50": histQ("basil_replica_deliver_latency_seconds", `kind="writeback"`, 0.5) / 1e3,
		"replica.busy_ms_per_tx":           float64(busy) / 1e6 / n,
		"replica.dep_waits_per_ktx":        perKtx(b.depWaits - a.depWaits),
		"replica.shed_per_ktx":             perKtx(b.shed - a.shed),
		"replica.txstates_peak":            float64(p.smp.txStatesPeak),
		"cryptoutil.verifies_per_tx":       float64(len(p.spans.window("replica.verify", from, to))) / n,
		"cryptoutil.signs_per_tx":          perTx(b.signed - a.signed),
		"cryptoutil.verify_us_p50":         spanQ("replica.verify", 0.5),
		"store.check_us_p50":               spanQ("replica.check", 0.5),
		"store.prepare_ok_share":           ratio(counter(reg, "basil_store_prepare_ok_total", ""), counter(reg, "basil_store_prepares_total", "")),
		"store.rts_rejections_per_ktx":     perKtx(counter(reg, "basil_store_rts_rejections_total", "")),
		"store.versions_peak":              float64(p.smp.versionsPeak),
		"store.gc_collected_per_tx":        perTx(counter(reg, "basil_store_gc_collected_total", "")),
		"wal.appends_per_tx":               perTx(b.walAppends - a.walAppends),
		"wal.fsyncs_per_append":            ratio(b.walSyncs-a.walSyncs, b.walAppends-a.walAppends),
		"wal.append_us_p50":                histQ("basil_wal_append_latency_seconds", "", 0.5) / 1e3,
		"wal.append_us_p99":                histQ("basil_wal_append_latency_seconds", "", 0.99) / 1e3,
		"wal.fsync_us_p50":                 histQ("basil_wal_fsync_latency_seconds", "", 0.5) / 1e3,
		"checkpoint.count":                 float64(counter(reg, "basil_replica_checkpoints_total", "")),
		"checkpoint.ms_p50":                ckpt.Quantile(0.5) / 1e6,
		"checkpoint.ms_max":                histMax(ckpt) / 1e6,
		"runtime.alloc_kb_per_tx":          float64(b.allocBytes-a.allocBytes) / 1024 / n,
		"runtime.gc_per_ktx":               perKtx(b.gcCycles - a.gcCycles),
		"loadgen.lag_ms_p99":               ms(p.lagP99()),
		"trace.overhead_pct":               0,
	}
	if untracedTput > 0 {
		m["trace.overhead_pct"] = 100 * (untracedTput - float64(w.commits)/w.secs) / untracedTput
	}
	return m
}

// histMax is the upper edge of the highest non-empty bucket.
func histMax(h pm.HistSnapshot) float64 {
	if len(h.Buckets) == 0 {
		return 0
	}
	return float64(h.Buckets[len(h.Buckets)-1].UpperNanos)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of xs with linear interpolation
// between order statistics (xs is sorted in place); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}
