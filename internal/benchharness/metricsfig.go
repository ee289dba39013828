package benchharness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/types"
)

// FigMetrics is the observability-overhead experiment backing the
// "metrics are free enough to leave on" claim: microbenchmarks of the
// record path (ns/op and allocs/op — the histogram must be 0 allocs) and
// the BenchmarkPrepareParallel pipeline workload with and without live
// instrumentation. The overhead row is the acceptance bound: the
// instrumented hot path must regress the pipeline by less than 2%.
func FigMetrics(s Scale) Table {
	t := Table{
		Title:  "Observability plane: record-path cost and hot-path overhead",
		Header: []string{"path", "ns/op", "allocs/op", "overhead"},
	}

	var h metrics.Histogram
	var c metrics.Counter
	obsNs := nsPerOp(200000, func(i int) { h.Observe(time.Duration(i & 0xFFFFF)) })
	obsAllocs := allocsPerOp(20000, func() { h.Observe(12345) })
	t.Rows = append(t.Rows, []string{"Histogram.Observe", f1(obsNs), f2(obsAllocs), "-"})

	addNs := nsPerOp(200000, func(int) { c.Add(1) })
	addAllocs := allocsPerOp(20000, func() { c.Add(1) })
	t.Rows = append(t.Rows, []string{"Counter.Add", f1(addNs), f2(addAllocs), "-"})

	var hNil *metrics.Histogram
	nilNs := nsPerOp(200000, func(i int) { hNil.Observe(time.Duration(i)) })
	t.Rows = append(t.Rows, []string{"Observe (metrics off, nil handle)", f1(nilNs), "0.00", "-"})

	// The replica hot path: signed disjoint-key prepares delivered twice
	// (the BenchmarkPrepareParallel workload), bare vs carrying exactly
	// the instrumentation the replica wires in: the deliver-latency clock
	// pair plus the store's prepare counters.
	total := 2000
	if s.Measure >= 5*time.Second {
		total = 6000 // the -scale full variant
	}
	bare := bestOf(3, func() float64 { return prepareNs(total, nil, nil) })
	live := bestOf(3, func() float64 { return prepareNs(total, metrics.NewRegistry(), nil) })
	t.Rows = append(t.Rows, []string{"prepare pipeline (bare)", f1(bare), "-", "-"})
	t.Rows = append(t.Rows, []string{"prepare pipeline (metrics live)", f1(live), "-",
		fmt.Sprintf("%+.2f%%", (live-bare)/bare*100)})
	return t
}

// prepareNs runs `total` signed single-write prepares (each delivered
// twice — re-delivery is routine) through the verify+store pipeline on
// GOMAXPROCS workers and reports ns per delivered pair. A non-nil mreg
// adds the instrumentation the replica wires in: the deliver-latency
// clock pair plus the store's prepare counters. A non-nil tr threads the
// replica's tracing calls through each delivery on an unsampled context,
// exactly as replica ingest makes them: a Start/End pair around
// verification and one around the store check. Both nil is the bare
// pipeline, which reads no clock.
func prepareNs(total int, mreg *metrics.Registry, tr *trace.Tracer) float64 {
	reg := cryptoutil.NewRegistry(cryptoutil.SchemeEd25519, 6, 1)
	sv := cryptoutil.NewSigVerifier(reg, total)
	st := store.NewStriped(store.DefaultStripes)
	var hDeliver *metrics.Histogram
	if mreg != nil {
		st.SetMetrics(store.RegistryMetrics(mreg))
		hDeliver = mreg.Histogram("basil_replica_deliver_latency_seconds", "kind", "st1")
	}
	var tc types.TraceContext
	if tr != nil {
		tc, _ = tr.Begin() // unsampled at rate 0, like live traffic
	}

	type signed struct {
		meta    *types.TxMeta
		id      types.TxID
		payload []byte
		sig     types.Signature
	}
	msgs := make([]signed, total)
	for i := range msgs {
		m := &types.TxMeta{
			Timestamp: types.Timestamp{Time: uint64(i + 1), ClientID: 1 + uint64(i%64)},
			WriteSet:  []types.WriteEntry{{Key: fmt.Sprintf("key-%04d", i%512), Value: []byte("v")}},
			Shards:    []int32{0},
		}
		id := m.ID()
		signer := int32(i % 6)
		msgs[i] = signed{meta: m, id: id, payload: id[:],
			sig: types.Signature{SignerID: signer, Direct: reg.Signer(signer).Sign(id[:])}}
	}

	deliver := func(m *signed) {
		var t0 time.Time
		if hDeliver != nil {
			t0 = time.Now()
		}
		vStart := tr.Start(tc)
		sig := m.sig
		if !sv.Verify(m.payload, &sig) {
			panic("benchmark: bad signature")
		}
		tr.End(tc, "r0.0", "replica.verify", 0, vStart)
		cStart := tr.Start(tc)
		st.CheckAndPrepare(m.meta, m.id)
		tr.End(tc, "r0.0", "replica.check", 0, cStart)
		if hDeliver != nil {
			hDeliver.Since(t0)
		}
	}

	workers := runtime.GOMAXPROCS(0)
	per := total / workers
	var seq atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m := &msgs[int(seq.Add(1))%len(msgs)]
				deliver(m)
				deliver(m)
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / float64(per*workers)
}

// nsPerOp times n calls of fn and returns nanoseconds per call.
func nsPerOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// allocsPerOp counts heap allocations per call (the hand-rolled
// equivalent of testing.AllocsPerRun, usable outside a test binary).
func allocsPerOp(n int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// bestOf returns the minimum of k runs (the standard way to strip
// scheduler noise from a fixed-work measurement).
func bestOf(k int, run func() float64) float64 {
	best := run()
	for i := 1; i < k; i++ {
		if v := run(); v < best {
			best = v
		}
	}
	return best
}
