package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/basil"
	"repro/internal/benchharness"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/verify"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	spec    spec
	seed    int64
	measure time.Duration
	setups  int    // cluster builds timed for setup_s, after an untimed one; the last is measured
	dataDir string // parent of durable replicas' WAL directories
}

// traceRing sizes the tracer's span ring. Spans are harvested every
// harvestEvery, so the ring holds one interval's spans with wide margin
// (a few thousand spans per interval on the workloads here).
const (
	traceRing    = 1 << 17
	harvestEvery = 200 * time.Millisecond
)

// phase is what one measured cluster produced.
type phase struct {
	spec     spec
	setup    []time.Duration
	epoch    time.Time
	recs     []*txRec
	sessions []*session
	lag      []time.Duration // open loop: lateness per arrival, in due order
	due      []time.Duration
	a, b     counters // readings at the measure window's start and end
	smp      *sampler
	spans    *spanLog
	problems []string // correctness violations
	checked  int      // transactions the serializability oracle saw
}

func (p *phase) violate(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// inWindow reports whether offset t falls inside the measure window.
func (p *phase) inWindow(t time.Duration) bool { return t >= p.a.wall && t <= p.b.wall }

// build creates, populates and connects one cluster and returns its
// system; the whole of it is set-up time.
func build(cfg runConfig, traced bool, dir string) (*timedSys, error) {
	s := cfg.spec
	opts := basil.Options{
		F: 1, Shards: 1,
		BatchSize:       s.batch,
		CheckpointEvery: checkpointEvery,
		DeltaMicros:     deltaMicros,
		TCPLoopback:     s.tcp,
	}
	if traced {
		opts.Tracing, opts.TraceSample, opts.TraceRing = true, 1, traceRing
	}
	if s.durable {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("data dir: %w", err)
		}
		opts.DataDir = dir
	}
	cl := basil.NewCluster(opts)
	sys := &timedSys{cl: cl}
	s.gen().Populate(cl.Load)
	for i := 0; i < sessions; i++ {
		sys.sessions = append(sys.sessions, &session{c: cl.NewClient()})
	}
	return sys, nil
}

// measurePhase builds one untimed cluster (process start-up costs such
// as first heap growth land there), then cfg.setups timed ones; it keeps
// the last and drives it for the warm-up and the measure window, reading
// every counter at the window's edges. It then checks the run's outputs.
func measurePhase(cfg runConfig, traced bool) (*phase, error) {
	p := &phase{spec: cfg.spec}
	dirOf := func(i int) string {
		return filepath.Join(cfg.dataDir, fmt.Sprintf("%s-%d-%d", cfg.spec.name, os.Getpid(), i))
	}
	var sys *timedSys
	for i := 0; i <= cfg.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := build(cfg, traced, dirOf(i))
		if err != nil {
			return nil, err
		}
		if i > 0 {
			p.setup = append(p.setup, time.Since(t0))
		}
		if i < cfg.setups {
			s.Close()
			_ = os.RemoveAll(dirOf(i)) // throwaway state; a leftover is harmless
			continue
		}
		sys = s
	}
	defer func() {
		sys.Close()
		_ = os.RemoveAll(dirOf(cfg.setups))
	}()
	cl := sys.cl

	// Populated values, for the final read audit.
	genesis := map[string][]byte{}
	gen := cfg.spec.gen()
	gen.Populate(func(k string, v []byte) { genesis[k] = v })

	var sends atomic.Uint64
	var sendCount func() uint64
	if traced && cl.Net() != nil {
		cl.Net().SetPolicy(func(_, _ transport.Addr, _ any) (time.Duration, bool) {
			sends.Add(1)
			return 0, false
		})
		sendCount = sends.Load
	}
	runtime.GC()

	p.epoch = time.Now()
	for _, s := range sys.sessions {
		s.epoch = p.epoch
	}
	f := newFeed(gen, cfg.seed, p.epoch)

	var harvestWG sync.WaitGroup
	stopHarvest := make(chan struct{})
	if traced {
		p.spans = newSpanLog(cl.Tracer())
		harvestWG.Add(1)
		go func() {
			defer harvestWG.Done()
			tick := time.NewTicker(harvestEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopHarvest:
					return
				case <-tick.C:
					p.spans.harvest()
				}
			}
		}()
	}

	loadDone := make(chan struct{})
	span := warmup + cfg.measure
	if cfg.spec.rate > 0 {
		rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
		p.due = append(arrivals(rng, 0, warmup, int(cfg.spec.rate*warmup.Seconds())),
			arrivals(rng, warmup, cfg.measure, int(cfg.spec.rate*cfg.measure.Seconds()))...)
		go func() {
			defer close(loadDone)
			p.lag = openLoop(sys, f, p.due, cfg.seed)
		}()
	} else {
		// Run past the window's end so transactions issued inside it finish.
		const tail = 500 * time.Millisecond
		go func() {
			defer close(loadDone)
			benchharness.Run(sys, f, benchharness.RunConfig{
				Clients: sessions, Measure: span + tail, MaxRetries: maxAttempts, Seed: cfg.seed,
			})
		}()
	}

	time.Sleep(time.Until(p.epoch.Add(warmup)))
	p.a = readCounters(cl, sys.sessions, sendCount, p.epoch)
	p.smp = startSampler(cl, traced)
	time.Sleep(time.Until(p.epoch.Add(span)))
	p.b = readCounters(cl, sys.sessions, sendCount, p.epoch)
	p.smp.Stop()
	<-loadDone
	if traced {
		close(stopHarvest)
		harvestWG.Wait()
		p.spans.harvest()
		if p.spans.lost {
			p.violate("trace ring overflowed between harvests: spans lost")
		}
	}
	p.recs = f.records()
	p.sessions = sys.sessions
	p.check(cl, genesis)
	return p, nil
}

// check verifies the run's outputs: the accounting identity, agreement
// with the program's own commit counter, serializability of everything
// committed since load (warm-up included), and a final read of written
// keys against the latest committed write.
func (p *phase) check(cl *basil.Cluster, genesis map[string][]byte) {
	// committed counts the Commit calls that returned nil; the other
	// outcomes come from the transaction records.
	var committed, aborted, failed, unissued int
	for _, r := range p.recs {
		switch {
		case r.committed():
		case r.failed():
			failed++
		case r.attempts == 0:
			unissued++
		default:
			aborted++
		}
	}
	var metas, unknown []*types.TxMeta
	var programCommits uint64
	for _, s := range p.sessions {
		committed += s.okCommit
		metas = append(metas, s.metas...)
		unknown = append(unknown, s.unknown...)
		programCommits += s.c.Stats().TxCommitted.Load()
	}
	if committed+aborted+failed+unissued != len(p.recs) {
		p.violate("accounting: committed %d + aborted %d + failed %d + unissued %d != offered %d",
			committed, aborted, failed, unissued, len(p.recs))
	}
	if programCommits != uint64(committed) {
		p.violate("accounting: clients counted %d commits, the benchmark saw %d", programCommits, committed)
	}
	if (p.spec.rate > 0 && unissued > 0) || unissued > sessions {
		p.violate("accounting: %d transactions drawn but never attempted", unissued)
	}

	// Undecided commits are settled through the recovery protocol: one
	// that committed belongs in the history.
	resolver := cl.NewClient()
	for _, m := range unknown {
		dec, _, err := resolver.Inner().FinishTransaction(m)
		if err != nil {
			p.violate("unknown outcome unresolved: %v", err)
			continue
		}
		if dec == types.DecisionCommit {
			metas = append(metas, m)
		}
	}

	var checker verify.Checker
	for _, m := range metas {
		checker.Add(verify.FromMeta(m))
	}
	for _, m := range p.audit(cl, metas, genesis) {
		checker.Add(verify.FromMeta(m))
	}
	p.checked = checker.Len()
	if err := checker.CheckSerializable(); err != nil {
		p.violate("%v", err)
	} else if err := checker.CheckTimestampOrderConsistent(); err != nil {
		p.violate("%v", err)
	}

	if p.spec.rate > 0 {
		if lag := p.lagP99(); lag > lagLimit {
			p.violate("open-loop generator p99 lag %v exceeds %v", lag, lagLimit)
		}
	}
}

// auditKeys is how many keys the final read audit reads.
const auditKeys = 64

// audit reads the most recently written keys (or, for a read-only
// workload, a spread of populated keys) after the load has stopped, and
// checks that each read returns the latest committed write's value and
// version. It returns the audit transactions for the oracle.
func (p *phase) audit(cl *basil.Cluster, metas []*types.TxMeta, genesis map[string][]byte) []*types.TxMeta {
	type version struct {
		ts    types.Timestamp
		value []byte
	}
	latest := map[string]version{}
	for _, m := range metas {
		for _, w := range m.WriteSet {
			if v, ok := latest[w.Key]; !ok || v.ts.Less(m.Timestamp) {
				latest[w.Key] = version{m.Timestamp, w.Value}
			}
		}
	}
	var keys []string
	for k := range latest {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return latest[keys[j]].ts.Less(latest[keys[i]].ts) })
	if len(keys) > auditKeys {
		keys = keys[:auditKeys]
	}
	if len(keys) == 0 {
		for k := range genesis {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		stride := max(1, len(keys)/auditKeys)
		var picked []string
		for i := 0; i < len(keys) && len(picked) < auditKeys; i += stride {
			picked = append(picked, keys[i])
		}
		keys = picked
	}

	// Let the last writebacks land before reading.
	time.Sleep(100 * time.Millisecond)
	auditor := cl.NewClient()
	var out []*types.TxMeta
	for lo := 0; lo < len(keys); lo += 8 {
		batch := keys[lo:min(lo+8, len(keys))]
		tx := auditor.Begin()
		for _, k := range batch {
			got, err := tx.Read(k)
			if err != nil {
				p.violate("audit read %q: %v", k, err)
				tx.Abort()
				return out
			}
			want, ok := latest[k]
			if !ok {
				want = version{value: genesis[k]}
			}
			if !bytes.Equal(got, want.value) {
				p.violate("audit: %q reads %x, latest committed write is %x", k, got, want.value)
			}
		}
		meta := tx.Meta()
		for _, r := range meta.ReadSet {
			if want := latest[r.Key].ts; r.Version != want {
				p.violate("audit: %q read version %v, latest committed is %v", r.Key, r.Version, want)
			}
		}
		if err := tx.Commit(); err != nil {
			p.violate("audit commit: %v", err)
			continue
		}
		out = append(out, meta)
	}
	return out
}

// lagP99 is the open-loop generator's p99 lateness over the window's
// arrivals (0 for a closed loop).
func (p *phase) lagP99() time.Duration {
	var xs []float64
	for i, d := range p.due {
		if p.inWindow(d) {
			xs = append(xs, float64(p.lag[i]))
		}
	}
	return time.Duration(quantile(xs, 0.99))
}
