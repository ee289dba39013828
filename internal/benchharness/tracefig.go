package benchharness

import (
	"fmt"
	"sort"
	"time"

	"repro/basil"
	"repro/internal/trace"
)

// stageOrder is the pipeline order the stage-breakdown table presents:
// the client lifecycle first, then the wire, then the replica ingest
// path. Span names outside this list (trace.forced markers, future
// stages) are appended alphabetically.
var stageOrder = []string{
	trace.RootSpan,
	"client.read",
	"client.prepare",
	"client.st2",
	"client.writeback",
	"client.recovery",
	"net.queue",
	"replica.dispatch_wait",
	"replica.check",
	"replica.verify",
	"replica.wal_append",
}

// TraceStageRow is one per-stage latency row of the trace breakdown —
// the numbers `make bench` records in BENCH_trace.json.
type TraceStageRow struct {
	Stage string  `json:"stage"`
	Count int     `json:"count"`
	P50Us float64 `json:"p50_us"`
	P99Us float64 `json:"p99_us"`
}

// TraceStages runs the RW-U workload through a fully sampled cluster on
// real loopback TCP (so net.queue spans exist and every trace context
// crosses the framed wire codec) and reduces the tracer's span ring to a
// per-stage latency breakdown. This is the tracer used as intended:
// where inside a transaction does the time go, stage by stage.
func TraceStages(s Scale) []TraceStageRow {
	gen := s.ycsbRWU()
	sys := NewBasilTCP(gen, basil.Options{
		F: 1, Shards: 1, BatchSize: 16,
		Tracing:     true,
		TraceSample: 1,
		TraceRing:   1 << 15,
	})
	Run(sys, gen, s.runCfg())
	spans := sys.C.Tracer().Spans()
	sys.Close()

	byStage := make(map[string][]float64)
	for _, sp := range spans {
		if sp.End < sp.Start {
			continue // clock skew across goroutines; drop rather than skew p50
		}
		byStage[sp.Name] = append(byStage[sp.Name], float64(sp.End-sp.Start)/1e3)
	}
	rows := make([]TraceStageRow, 0, len(byStage))
	add := func(name string) {
		ds := byStage[name]
		if len(ds) == 0 {
			return
		}
		delete(byStage, name)
		sort.Float64s(ds)
		rows = append(rows, TraceStageRow{
			Stage: name, Count: len(ds),
			P50Us: quantileOf(ds, 0.50), P99Us: quantileOf(ds, 0.99),
		})
	}
	for _, name := range stageOrder {
		add(name)
	}
	rest := make([]string, 0, len(byStage))
	for name := range byStage {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	for _, name := range rest {
		add(name)
	}
	return rows
}

// quantileOf reads quantile q from an already-sorted sample (nearest
// rank; the sample is the whole ring, not a sketch).
func quantileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// TraceOverhead holds the disabled-path cost measurement: what tracing
// costs when it records nothing, which is the price every deployment
// pays all the time. The acceptance bound is OverheadPct <= 2 on the
// prepare pipeline.
type TraceOverhead struct {
	StartNsPerOp     float64 `json:"start_unsampled_ns_per_op"`
	StartAllocsPerOp float64 `json:"start_unsampled_allocs_per_op"`
	BareNsPerOp      float64 `json:"pipeline_bare_ns_per_op"`
	UnsampledNsPerOp float64 `json:"pipeline_unsampled_ns_per_op"`
	OverheadPct      float64 `json:"pipeline_overhead_pct"`
}

// MeasureTraceOverhead runs the BenchmarkPrepareParallel-style pipeline
// workload bare and with a rate-zero tracer threaded through the replica
// stage calls (Start returning 0, every End a no-op) and reports the
// regression.
func MeasureTraceOverhead(s Scale) TraceOverhead {
	var o TraceOverhead
	tr := trace.New(trace.Options{SampleRate: 0})
	tc, _ := tr.Begin() // unsampled at rate 0, like every fast-path txn
	o.StartNsPerOp = nsPerOp(200000, func(int) { tr.Start(tc) })
	o.StartAllocsPerOp = allocsPerOp(20000, func() {
		st := tr.Start(tc)
		tr.End(tc, "r0.0", "replica.check", 0, st)
	})

	total := 2000
	if s.Measure >= 5*time.Second {
		total = 6000 // the -scale full variant
	}
	o.BareNsPerOp = bestOf(3, func() float64 { return prepareNs(total, nil, nil) })
	o.UnsampledNsPerOp = bestOf(3, func() float64 { return prepareNs(total, nil, tr) })
	o.OverheadPct = (o.UnsampledNsPerOp - o.BareNsPerOp) / o.BareNsPerOp * 100
	return o
}

// FigTrace is the tracing experiment behind `-experiment trace`: the
// per-stage latency breakdown a fully sampled cluster yields (the
// "explain the tail" table) and the disabled-path overhead that keeping
// the tracer compiled into the hot path costs (the "cheap enough to
// always ship" table; the pipeline row must stay within 2%).
func FigTrace(s Scale) (Table, Table) {
	stages := Table{
		Title:  "Trace stage breakdown (sample rate 1, TCP loopback, RW-U)",
		Header: []string{"stage", "count", "p50 (us)", "p99 (us)"},
	}
	for _, r := range TraceStages(s) {
		stages.Rows = append(stages.Rows, []string{
			r.Stage, fmt.Sprint(r.Count), f1(r.P50Us), f1(r.P99Us),
		})
	}

	o := MeasureTraceOverhead(s)
	over := Table{
		Title:  "Tracer disabled-path overhead (unsampled contexts)",
		Header: []string{"path", "ns/op", "allocs/op", "overhead"},
	}
	over.Rows = append(over.Rows, []string{"Tracer.Start (unsampled)", f1(o.StartNsPerOp), f2(o.StartAllocsPerOp), "-"})
	over.Rows = append(over.Rows, []string{"prepare pipeline (bare)", f1(o.BareNsPerOp), "-", "-"})
	over.Rows = append(over.Rows, []string{"prepare pipeline (tracer on, rate 0)", f1(o.UnsampledNsPerOp), "-",
		fmt.Sprintf("%+.2f%%", o.OverheadPct)})
	return stages, over
}
