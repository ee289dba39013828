package benchharness

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/basil"
	"repro/internal/client"
	"repro/internal/workload"
)

// FailureRunConfig parameterizes a Byzantine-client run (paper §6.4,
// Fig. 7): a constant client population, a fraction of which issues
// faulty transactions at a given rate under one misbehavior mode.
type FailureRunConfig struct {
	CorrectClients int
	ByzClients     int
	// FaultFraction is the probability that a Byzantine client's next
	// admitted transaction misbehaves (its remaining transactions are
	// executed correctly, matching the paper's setup).
	FaultFraction float64
	Mode          client.FaultMode
	Warmup        time.Duration
	Measure       time.Duration
	Seed          int64
}

// FailureResult extends the correct clients' Result with fault
// accounting.
type FailureResult struct {
	Result
	FaultyTxs       uint64
	EquivocationsOK uint64  // equiv attempts that actually diverged
	FaultShare      float64 // faulty / (faulty + correct commits), the paper's x-axis
}

// RunWithByzClients starts a faulty population, drives gen with Run's
// closed loop over the correct clients, and stops the faulty population.
// Throughput and latency are the correct clients'; faulty transactions
// count over the same measure window.
func RunWithByzClients(cl *basil.Cluster, gen workload.Generator, cfg FailureRunConfig) FailureResult {
	if cfg.Seed == 0 {
		cfg.Seed = 99
	}
	var measuring atomic.Bool
	byz := &FaultyLoad{Mode: cfg.Mode, Fraction: cfg.FaultFraction, Gate: &measuring}
	clients := make([]*client.Client, cfg.ByzClients)
	for i := range clients {
		clients[i] = cl.NewClient().Inner()
	}
	byz.Start(clients, gen, cfg.Seed+100_003)
	r := run(&BasilSystem{C: cl}, gen, RunConfig{
		Clients: cfg.CorrectClients, Warmup: cfg.Warmup, Measure: cfg.Measure, Seed: cfg.Seed,
	}, &measuring)
	byz.Stop()

	res := FailureResult{Result: r, FaultyTxs: byz.Sent.Load(), EquivocationsOK: byz.Diverged.Load()}
	if total := float64(res.FaultyTxs) + float64(res.Commits); total > 0 {
		res.FaultShare = float64(res.FaultyTxs) / total
	}
	return res
}

// faultyTick is the pacing quantum of a paced faulty client.
const faultyTick = 2 * time.Millisecond

// FaultyLoad is the one Byzantine-client driver, serving both the Fig. 7
// failure runs and the scenario spammer. Each client draws transactions
// from a generator and commits a Fraction of them under Mode; the rest it
// commits correctly. Nothing a faulty client issues is retried.
type FaultyLoad struct {
	Mode     client.FaultMode
	Fraction float64
	// Rate paces each client to at most Rate transactions per second
	// plus one burst (a token bucket holding one tick's worth, at least
	// one); 0 leaves it unpaced.
	Rate float64
	// Gate, when non-nil, limits counting to while it is set.
	Gate *atomic.Bool

	Sent     atomic.Uint64 // faulty commits issued
	Diverged atomic.Uint64 // equivocations that actually diverged

	stop chan struct{}
	wg   sync.WaitGroup
}

// Start launches one driver goroutine per client; client i draws from
// the rng seeded with seed+i*104729.
func (f *FaultyLoad) Start(clients []*client.Client, gen workload.Generator, seed int64) {
	f.stop = make(chan struct{})
	for i, c := range clients {
		rng := rand.New(rand.NewSource(seed + int64(i)*104729))
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.drive(c, gen, rng)
		}()
	}
}

// Stop ends every driver and waits for them. A paced driver returns
// within one tick; any driver returns once its current transaction does.
func (f *FaultyLoad) Stop() {
	close(f.stop)
	f.wg.Wait()
}

// drive runs one faulty client until Stop.
func (f *FaultyLoad) drive(c *client.Client, gen workload.Generator, rng *rand.Rand) {
	burst := max(f.Rate*faultyTick.Seconds(), 1)
	tokens, last := burst, time.Now()
	tick := time.NewTicker(faultyTick)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		if f.Rate > 0 {
			now := time.Now()
			tokens = min(tokens+f.Rate*now.Sub(last).Seconds(), burst)
			last = now
			if tokens < 1 {
				select {
				case <-f.stop:
					return
				case <-tick.C:
				}
				continue
			}
			tokens--
		}
		fn := gen.Next(rng)
		faulty := rng.Float64() < f.Fraction
		tx := c.Begin()
		if fn.Body(tx) != nil {
			tx.Abort()
			continue
		}
		if !faulty {
			_ = tx.Commit()
			continue
		}
		ok := c.CommitFaulty(tx, f.Mode)
		if f.Gate == nil || f.Gate.Load() {
			f.Sent.Add(1)
			if ok && (f.Mode == client.FaultEquivReal || f.Mode == client.FaultEquivForced) {
				f.Diverged.Add(1)
			}
		}
	}
}
