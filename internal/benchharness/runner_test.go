package benchharness

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/basil"
	"repro/internal/client"
	"repro/internal/txbase"
	"repro/internal/workload"
)

func quickRun() RunConfig {
	return RunConfig{Clients: 3, Warmup: 50 * time.Millisecond, Measure: 300 * time.Millisecond}
}

func smallYCSB() workload.Generator {
	return workload.NewYCSB(workload.YCSBConfig{Keys: 500, ReadOps: 2, WriteOps: 2})
}

func TestRunBasilYCSB(t *testing.T) {
	gen := smallYCSB()
	sys := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: 4})
	defer sys.Close()
	r := Run(sys, gen, quickRun())
	if r.Commits == 0 {
		t.Fatalf("no commits: %+v", r)
	}
	if r.Throughput <= 0 || r.MeanLatMs <= 0 {
		t.Fatalf("bad stats: %+v", r)
	}
	if share := sys.FastPathShare(); share == 0 {
		t.Errorf("expected some fast-path commits, share=0")
	}
}

func TestRunTapirYCSB(t *testing.T) {
	gen := smallYCSB()
	sys := NewTapir(gen, 1)
	defer sys.Close()
	r := Run(sys, gen, quickRun())
	if r.Commits == 0 {
		t.Fatalf("no commits: %+v", r)
	}
}

func TestRunTxBasePBFT(t *testing.T) {
	gen := smallYCSB()
	sys := NewTxBase(gen, txbase.KindPBFT, 1)
	defer sys.Close()
	r := Run(sys, gen, quickRun())
	if r.Commits == 0 {
		t.Fatalf("no commits: %+v", r)
	}
}

func TestRunTxBaseHotStuff(t *testing.T) {
	gen := smallYCSB()
	sys := NewTxBase(gen, txbase.KindHotStuff, 1)
	defer sys.Close()
	r := Run(sys, gen, quickRun())
	if r.Commits == 0 {
		t.Fatalf("no commits: %+v", r)
	}
}

func TestRunSmallbankBasil(t *testing.T) {
	gen := workload.NewSmallbank(workload.SmallbankConfig{Accounts: 2_000})
	sys := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: 4})
	defer sys.Close()
	r := Run(sys, gen, quickRun())
	if r.Commits == 0 {
		t.Fatalf("no commits: %+v", r)
	}
}

func TestRunRetwisBasil(t *testing.T) {
	gen := workload.NewRetwis(workload.RetwisConfig{Users: 500})
	sys := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: 4})
	defer sys.Close()
	r := Run(sys, gen, quickRun())
	if r.Commits == 0 {
		t.Fatalf("no commits: %+v", r)
	}
}

func TestRunTPCCBasil(t *testing.T) {
	gen := workload.NewTPCC(workload.TPCCConfig{
		Warehouses: 1, Districts: 2, CustomersPer: 30, Items: 100, StockOrders: 2,
	})
	sys := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: 4})
	defer sys.Close()
	r := Run(sys, gen, quickRun())
	if r.Commits == 0 {
		t.Fatalf("no commits: %+v", r)
	}
}

func TestRunWithStallLateByzClients(t *testing.T) {
	gen := workload.NewYCSB(workload.YCSBConfig{Keys: 200, ReadOps: 2, WriteOps: 2, Theta: 0.9})
	sys := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: 4})
	defer sys.Close()
	r := RunWithByzClients(sys.C, gen, FailureRunConfig{
		CorrectClients: 3, ByzClients: 2, FaultFraction: 0.5,
		Mode:   client.FaultStallLate,
		Warmup: 50 * time.Millisecond, Measure: 400 * time.Millisecond,
	})
	if r.Commits == 0 {
		t.Fatalf("correct clients starved entirely: %+v", r)
	}
	if r.FaultyTxs == 0 {
		t.Fatalf("no faulty transactions were issued")
	}
}

func TestRunWithEquivForced(t *testing.T) {
	gen := workload.NewYCSB(workload.YCSBConfig{Keys: 200, ReadOps: 2, WriteOps: 2, Theta: 0.9})
	// Under a fully loaded machine (e.g. the whole bench suite running
	// concurrently) a single short window can starve spuriously; retry
	// with growing windows before declaring a liveness failure.
	for attempt := 1; attempt <= 3; attempt++ {
		sys := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: 4,
			PhaseTimeout: 25 * time.Millisecond, AllowUnvalidatedST2: true})
		r := RunWithByzClients(sys.C, gen, FailureRunConfig{
			CorrectClients: 3, ByzClients: 1, FaultFraction: 0.5,
			Mode:    client.FaultEquivForced,
			Warmup:  100 * time.Millisecond,
			Measure: time.Duration(attempt) * time.Second,
		})
		sys.Close()
		if r.Commits > 0 {
			return
		}
		if attempt == 3 {
			t.Fatalf("correct clients starved entirely after %d attempts: %+v", attempt, r)
		}
	}
}

// peakFakeSystem is a deterministic System whose per-transaction service
// time depends on the configured client count, shaping a non-monotonic
// throughput curve for FindPeak tests. mu guards clients/service:
// sessions are created from the harness while earlier sessions' commit
// goroutines are already reading the service time.
type peakFakeSystem struct {
	serviceOf func(clients int) time.Duration
	mu        sync.Mutex
	clients   int
	service   time.Duration
}

func (s *peakFakeSystem) Name() string        { return "peak-fake" }
func (s *peakFakeSystem) Load(string, []byte) {}
func (s *peakFakeSystem) Close()              {}
func (s *peakFakeSystem) NewSession() Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clients++
	s.service = s.serviceOf(s.clients)
	return peakFakeSession{s}
}

func (s *peakFakeSystem) serviceTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.service
}

type peakFakeSession struct{ s *peakFakeSystem }

func (f peakFakeSession) Begin() SysTx { return peakFakeTx{f.s} }

type peakFakeTx struct{ s *peakFakeSystem }

func (t peakFakeTx) Read(string) ([]byte, error) { return nil, nil }
func (t peakFakeTx) Write(string, []byte)        {}
func (t peakFakeTx) Abort()                      {}
func (t peakFakeTx) Commit() error {
	time.Sleep(t.s.serviceTime())
	return nil
}

// TestFindPeakNonMonotonic pins FindPeak's contract on a curve that
// rises then collapses: the peak must be the interior maximum, not the
// first or last point of the sweep. The fake system's service time
// balloons past 8 clients, modeling contention collapse.
func TestFindPeakNonMonotonic(t *testing.T) {
	makeSystem := func() System {
		return &peakFakeSystem{serviceOf: func(clients int) time.Duration {
			switch {
			case clients <= 4:
				return 2 * time.Millisecond // up to ~500/s/client region
			case clients <= 8:
				return 3 * time.Millisecond
			default:
				return 40 * time.Millisecond // collapse: 16 clients -> ~400/s total
			}
		}}
	}
	gen := plainWriteGen{}
	cfg := RunConfig{Warmup: 20 * time.Millisecond, Measure: 250 * time.Millisecond, Seed: 3}
	best, all := FindPeak(makeSystem, gen, []int{4, 8, 16}, cfg)
	if len(all) != 3 {
		t.Fatalf("sweep ran %d points, want 3", len(all))
	}
	if best.Clients != 8 {
		for _, r := range all {
			t.Logf("clients=%d tput=%.0f", r.Clients, r.Throughput)
		}
		t.Fatalf("peak found at %d clients, want the interior maximum at 8", best.Clients)
	}
	if best.Throughput < all[0].Throughput || best.Throughput < all[2].Throughput {
		t.Fatalf("reported peak %.0f below a swept point (%.0f, %.0f)",
			best.Throughput, all[0].Throughput, all[2].Throughput)
	}
}

// plainWriteGen is a no-op workload for fake-system tests.
type plainWriteGen struct{}

func (plainWriteGen) Name() string                  { return "plain-write" }
func (plainWriteGen) Populate(func(string, []byte)) {}
func (plainWriteGen) Next(rng *rand.Rand) workload.TxnFunc {
	return workload.TxnFunc{Name: "w", Body: func(tx workload.Tx) error {
		tx.Write("k", nil)
		return nil
	}}
}

// flakyGen draws transactions whose first failures commits fail before
// one succeeds (or, with appAbort, whose bodies roll back), recording how
// many attempts each drawn transaction got.
type flakyGen struct {
	failures int
	appAbort bool

	mu       sync.Mutex
	attempts []int // per drawn transaction, in draw order
}

func (g *flakyGen) Name() string                  { return "flaky" }
func (g *flakyGen) Populate(func(string, []byte)) {}
func (g *flakyGen) Next(*rand.Rand) workload.TxnFunc {
	g.mu.Lock()
	id := len(g.attempts)
	g.attempts = append(g.attempts, 0)
	g.mu.Unlock()
	return workload.TxnFunc{Name: "flaky", Body: func(tx workload.Tx) error {
		time.Sleep(100 * time.Microsecond) // bound the draw count
		g.mu.Lock()
		g.attempts[id]++
		n := g.attempts[id]
		g.mu.Unlock()
		if g.appAbort {
			return workload.ErrWorkloadAbort
		}
		if n <= g.failures {
			tx.Write("fail", nil)
		}
		return nil
	}}
}

// finished returns the attempt counts of every drawn transaction but the
// last, which the end of the run may have cut short.
func (g *flakyGen) finished() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.attempts) < 2 {
		return nil
	}
	return append([]int(nil), g.attempts[:len(g.attempts)-1]...)
}

var errFlaky = errors.New("flaky: transient commit failure")

// flakySystem's Commit fails iff the attempt's body wrote "fail"; err,
// when set, is the failure it returns.
type flakySystem struct{ err error }

func (s *flakySystem) Name() string        { return "flaky" }
func (s *flakySystem) Load(string, []byte) {}
func (s *flakySystem) Close()              {}
func (s *flakySystem) NewSession() Session { return flakySession{s} }

type flakySession struct{ s *flakySystem }

func (f flakySession) Begin() SysTx { return &flakyTx{s: f.s} }

type flakyTx struct {
	s    *flakySystem
	fail bool
}

func (t *flakyTx) Read(string) ([]byte, error) { return nil, nil }
func (t *flakyTx) Write(k string, _ []byte)    { t.fail = t.fail || k == "fail" }
func (t *flakyTx) Abort()                      {}
func (t *flakyTx) Commit() error {
	if !t.fail {
		return nil
	}
	if t.s.err != nil {
		return t.s.err
	}
	return errFlaky
}

// TestRunRetryContract pins Run's retry loop on a fake system whose
// transactions fail k commits before one succeeds: every transaction
// commits once after k+1 attempts; MaxRetries m <= k starves each after m
// attempts; an application abort is never retried.
func TestRunRetryContract(t *testing.T) {
	const k = 3
	cfg := RunConfig{Clients: 1, Measure: 150 * time.Millisecond, Seed: 5}
	eachTook := func(t *testing.T, g *flakyGen, want int) {
		t.Helper()
		done := g.finished()
		if len(done) == 0 {
			t.Fatal("no transaction finished")
		}
		for i, n := range done {
			if n != want {
				t.Fatalf("transaction %d took %d attempts, want %d", i, n, want)
			}
		}
	}

	t.Run("retries-until-commit", func(t *testing.T) {
		g := &flakyGen{failures: k}
		r := Run(&flakySystem{}, g, cfg)
		eachTook(t, g, k+1)
		if r.Commits == 0 || r.Starved != 0 || r.AppAborts != 0 {
			t.Fatalf("commits=%d starved=%d appAborts=%d", r.Commits, r.Starved, r.AppAborts)
		}
		if r.Attempts < r.Commits*k {
			t.Fatalf("%d attempts for %d commits: retries not counted", r.Attempts, r.Commits)
		}
	})
	t.Run("max-retries-starves", func(t *testing.T) {
		g := &flakyGen{failures: k}
		c := cfg
		c.MaxRetries = 2
		r := Run(&flakySystem{}, g, c)
		eachTook(t, g, 2)
		if r.Commits != 0 || r.Starved == 0 {
			t.Fatalf("commits=%d starved=%d, want 0 and >0", r.Commits, r.Starved)
		}
	})
	t.Run("app-abort-not-retried", func(t *testing.T) {
		g := &flakyGen{appAbort: true}
		r := Run(&flakySystem{}, g, cfg)
		eachTook(t, g, 1)
		if r.AppAborts == 0 || r.Commits != 0 || r.Starved != 0 {
			t.Fatalf("appAborts=%d commits=%d starved=%d", r.AppAborts, r.Commits, r.Starved)
		}
	})
}

// TestExecutorOpenModeRecordsTimeouts pins the one mode-dependent rule:
// in open mode an attempt that failed other than by basil.ErrAborted is
// terminal (Unknown, one attempt), while a definite abort is retried.
func TestExecutorOpenModeRecordsTimeouts(t *testing.T) {
	for _, tc := range []struct {
		err      error
		out      Outcome
		attempts int
	}{
		{errFlaky, Unknown, 1},
		{basil.ErrAborted, Committed, 3},
	} {
		g := &flakyGen{failures: 2}
		var tally Tally
		ex := &Executor{Sess: flakySession{&flakySystem{err: tc.err}}, Rng: rand.New(rand.NewSource(1)),
			Tally: &tally, Open: true}
		out, _, _ := ex.Exec(g.Next(nil), time.Now())
		if out != tc.out || tally.Attempts.Load() != uint64(tc.attempts) {
			t.Fatalf("%v: outcome %d after %d attempts, want %d after %d",
				tc.err, out, tally.Attempts.Load(), tc.out, tc.attempts)
		}
	}
}

// TestFaultyLoadPacing bounds the faulty driver from above only — a
// paced client sends at most Rate·t plus one burst, however the host
// schedules it — and checks Stop returns promptly (within one pacing tick
// plus scheduler slack), paced or not.
func TestFaultyLoadPacing(t *testing.T) {
	gen := plainWriteGen{}
	sys := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: 4})
	defer sys.Close()
	for _, rate := range []float64{100, 0} {
		f := &FaultyLoad{Mode: client.FaultStallEarly, Fraction: 1, Rate: rate}
		begin := time.Now()
		f.Start([]*client.Client{sys.C.NewClient().Inner()}, gen, 1)
		time.Sleep(200 * time.Millisecond)
		stopAt := time.Now()
		f.Stop()
		stopTook := time.Since(stopAt)
		sent := float64(f.Sent.Load())
		if rate > 0 {
			burst := max(rate*faultyTick.Seconds(), 1)
			if limit := rate*time.Since(begin).Seconds() + burst; sent > limit {
				t.Fatalf("rate %.0f/s: sent %.0f, limit %.1f", rate, sent, limit)
			}
		}
		if stopTook > faultyTick+100*time.Millisecond {
			t.Fatalf("rate %.0f/s: Stop took %v", rate, stopTook)
		}
	}
}
