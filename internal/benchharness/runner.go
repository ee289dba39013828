package benchharness

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/basil"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// RunConfig parameterizes one measurement run.
type RunConfig struct {
	// Clients is the closed-loop client count.
	Clients int
	// Warmup is discarded; Measure is the recorded window.
	Warmup  time.Duration
	Measure time.Duration
	// MaxRetries bounds per-transaction retries (0 = retry forever,
	// matching the paper's closed loop).
	MaxRetries int
	Seed       int64
}

// Result aggregates one run.
type Result struct {
	System   string
	Workload string
	Clients  int

	Throughput  float64 // committed tx/s in the measure window
	MeanLatMs   float64 // mean commit latency (first attempt -> commit)
	P50LatMs    float64
	P90LatMs    float64
	P99LatMs    float64
	P999LatMs   float64
	CommitRate  float64 // commits / attempts
	Commits     uint64
	Attempts    uint64
	AppAborts   uint64  // application-logic aborts (not retried)
	Starved     uint64  // transactions that hit MaxRetries
	PerTxpsCli  float64 // committed tx/s per client
	MeasureSecs float64
}

// Outcome is how the executor finished one drawn transaction.
type Outcome uint8

const (
	// Committed: Commit returned nil.
	Committed Outcome = iota
	// AppAborted: the body rolled back (workload.ErrWorkloadAbort). The
	// transaction is complete and is never retried.
	AppAborted
	// Starved: the attempt budget ran out before a decision.
	Starved
	// Unknown: an open-loop attempt failed other than by a definite
	// abort (a timeout), so it may still commit; the caller resolves it
	// after the run through the recovery protocol.
	Unknown
)

// Tally is the executor's outcome accounting, shared by every session of
// one run. Counters are atomics and Lat is lock-free, so any number of
// executors record into one Tally.
type Tally struct {
	// Gate, when non-nil, limits accounting to while it is set: the
	// closed loop's measure window.
	Gate *atomic.Bool

	// Attempts counts every Begin; Outcomes counts finished
	// transactions, indexed by Outcome.
	Attempts atomic.Uint64
	Outcomes [Unknown + 1]atomic.Uint64
	// Lat is commit latency, measured from each transaction's origin.
	Lat metrics.Histogram
}

func (t *Tally) on() bool { return t.Gate == nil || t.Gate.Load() }

func (t *Tally) note(out Outcome, lat time.Duration) {
	if !t.on() {
		return
	}
	t.Outcomes[out].Add(1)
	if out == Committed {
		t.Lat.Observe(lat)
	}
}

// Executor is the one transaction executor every load driver uses. It
// runs a drawn transaction on its session — Begin, Body, then Commit, or
// Abort when the body fails — and retries a failed attempt after a
// jittered exponential backoff of 200µs doubling to 10ms. An Executor
// belongs to one goroutine.
type Executor struct {
	Sess  Session
	Rng   *rand.Rand // backoff jitter
	Tally *Tally
	// MaxAttempts bounds the attempts per transaction (0 = until
	// decided).
	MaxAttempts int
	// Open selects the open-loop rule for an attempt that failed other
	// than by basil.ErrAborted — a timeout: it ends as Unknown instead of
	// being retried, because it may yet commit. The closed loop retries it.
	Open bool
	// Stop, when non-nil, abandons the transaction once set; an
	// abandoned transaction is reported as Starved but not counted.
	Stop *atomic.Bool
}

// Exec runs fn to an outcome. origin is when the transaction was wanted —
// its first invocation (closed loop) or its intended arrival (open loop)
// — and lat, set on commit, is measured from it. tx is the last attempt.
func (e *Executor) Exec(fn workload.TxnFunc, origin time.Time) (out Outcome, lat time.Duration, tx SysTx) {
	backoff := 200 * time.Microsecond
	for attempt := 1; ; attempt++ {
		if e.Stop != nil && e.Stop.Load() {
			return Starved, 0, tx
		}
		tx = e.Sess.Begin()
		if e.Tally.on() {
			e.Tally.Attempts.Add(1)
		}
		err := fn.Body(tx)
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		switch {
		case err == nil:
			out, lat = Committed, max(time.Since(origin), 0)
		case errors.Is(err, workload.ErrWorkloadAbort):
			out = AppAborted
		case e.Open && !errors.Is(err, basil.ErrAborted):
			out = Unknown
		case e.MaxAttempts > 0 && attempt >= e.MaxAttempts:
			out = Starved
		default:
			time.Sleep(backoff + time.Duration(e.Rng.Int63n(int64(backoff))))
			if backoff < 10*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		e.Tally.note(out, lat)
		return out, lat, tx
	}
}

// Run drives gen against sys with closed-loop clients and returns
// aggregate statistics. Latency is measured from a transaction's first
// invocation until its commit returns (paper §6 setup), with aborted
// transactions retried under exponential backoff.
func Run(sys System, gen workload.Generator, cfg RunConfig) Result {
	return run(sys, gen, cfg, new(atomic.Bool))
}

// run is Run with the measure-window flag supplied by the caller, so a
// concurrent load can count over the same window.
func run(sys System, gen workload.Generator, cfg RunConfig, measuring *atomic.Bool) Result {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Measure <= 0 {
		cfg.Measure = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}

	var stop atomic.Bool
	// Commit latency goes through the same log-scale histogram the
	// production metrics plane uses: lock-free, allocation-free recording
	// from every client goroutine, percentiles recovered from the buckets
	// (within one sub-bucket, ≈6%).
	t := &Tally{Gate: measuring}

	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		ex := &Executor{
			Sess: sys.NewSession(), Rng: rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			Tally: t, MaxAttempts: cfg.MaxRetries, Stop: &stop,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				ex.Exec(gen.Next(ex.Rng), time.Now())
			}
		}()
	}

	time.Sleep(cfg.Warmup)
	measuring.Store(true)
	t0 := time.Now()
	time.Sleep(cfg.Measure)
	measuring.Store(false)
	elapsed := time.Since(t0).Seconds()
	stop.Store(true)
	wg.Wait()

	res := Result{
		System:      sys.Name(),
		Workload:    gen.Name(),
		Clients:     cfg.Clients,
		Commits:     t.Outcomes[Committed].Load(),
		Attempts:    t.Attempts.Load(),
		AppAborts:   t.Outcomes[AppAborted].Load(),
		Starved:     t.Outcomes[Starved].Load(),
		MeasureSecs: elapsed,
	}
	res.Throughput = float64(res.Commits) / elapsed
	res.PerTxpsCli = res.Throughput / float64(cfg.Clients)
	if res.Attempts > 0 {
		res.CommitRate = float64(res.Commits) / float64(res.Attempts)
	}
	res.MeanLatMs, res.P50LatMs, res.P90LatMs, res.P99LatMs, res.P999LatMs = latencyStats(t.Lat.SnapshotHist())
	return res
}

// latencyStats extracts the latency summary (ms) from a histogram
// snapshot: mean plus the p50/p90/p99/p99.9 percentile ladder.
func latencyStats(s metrics.HistSnapshot) (mean, p50, p90, p99, p999 float64) {
	const ms = 1e6 // ns per ms
	return s.MeanNanos() / ms,
		s.Quantile(0.50) / ms,
		s.Quantile(0.90) / ms,
		s.Quantile(0.99) / ms,
		s.Quantile(0.999) / ms
}

// measure runs gen's closed loop on sys, then closes sys.
func measure(sys System, gen workload.Generator, cfg RunConfig) Result {
	defer sys.Close()
	return Run(sys, gen, cfg)
}

// FindPeak sweeps client counts and returns the run with the highest
// throughput, mirroring the paper's "peak throughput" methodology.
// makeSystem must return a freshly populated system for each trial.
func FindPeak(makeSystem func() System, gen workload.Generator, clientCounts []int, cfg RunConfig) (Result, []Result) {
	var best Result
	var all []Result
	for _, n := range clientCounts {
		c := cfg
		c.Clients = n
		r := measure(makeSystem(), gen, c)
		all = append(all, r)
		if r.Throughput > best.Throughput {
			best = r
		}
	}
	return best, all
}
