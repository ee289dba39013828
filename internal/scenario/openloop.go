package scenario

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchharness"
	"repro/internal/metrics"
	"repro/internal/types"
	"repro/internal/workload"
)

// LoadPhase is one segment of the offered-load profile: the arrival rate
// ramps linearly from StartRate to EndRate tx/s over Dur.
type LoadPhase struct {
	Dur       time.Duration
	StartRate float64
	EndRate   float64
}

// LoadConfig parameterizes one open-loop run. Unlike the closed-loop
// benchharness runner — where a slow system silently throttles its own
// offered load — arrivals here follow a Poisson process at the
// configured rate regardless of how the system is doing, and each
// transaction's latency is measured from its *intended* arrival time.
// A transaction that sat in the dispatch queue because every session
// was busy pays that wait in its recorded latency, which is what a real
// user behind an overloaded service experiences.
type LoadConfig struct {
	// Phases is the piecewise-linear rate profile; the run lasts the sum
	// of their durations.
	Phases []LoadPhase
	// Users is the simulated user population: each arrival belongs to
	// user seq%Users and draws its transaction from that user's own
	// deterministic stream, so the workload is user-attributed no matter
	// which of the (far fewer) real sessions executes it.
	Users int
	// Sessions is the real connection pool multiplexing all users.
	Sessions int
	// MaxPending bounds arrivals admitted but not yet executing; an
	// arrival that finds the queue full is dropped and counted (the
	// client-side give-up of an overloaded service, never silent).
	MaxPending int
	// MaxRetries bounds per-transaction commit retries.
	MaxRetries int
	// Bin is the commits-over-time histogram resolution used for
	// recovery-time verdicts. Default 250ms.
	Bin time.Duration
	// StormStart/StormEnd delimit the chaos window within the run.
	// Completions whose *intended arrival* predates StormStart are
	// "calm" (residual storm backlog never contaminates the calm tail);
	// arrivals inside the window are "storm". Zero values mean the whole
	// run is calm.
	StormStart time.Duration
	StormEnd   time.Duration
	Seed       int64
}

func (c *LoadConfig) withDefaults() {
	if c.Users <= 0 {
		c.Users = 1000
	}
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 128
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.Bin <= 0 {
		c.Bin = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Total returns the profile's duration.
func (c *LoadConfig) Total() time.Duration {
	var d time.Duration
	for _, p := range c.Phases {
		d += p.Dur
	}
	return d
}

// OpenResult aggregates one open-loop run. Every offered arrival is
// accounted for exactly once: committed, application-aborted, starved
// (retry budget exhausted), unknown (a timeout left the outcome
// undecided — resolved after the run through the recovery protocol), or
// dropped at the dispatch queue.
type OpenResult struct {
	Offered   uint64
	Commits   uint64
	AppAborts uint64
	Starved   uint64
	Unknowns  uint64
	Dropped   uint64
	Elapsed   time.Duration

	CalmMeanMs float64
	CalmP99Ms  float64
	StormP99Ms float64
	AllMeanMs  float64
	AllP99Ms   float64
	CalmCount  uint64
	StormCount uint64

	// Bins counts commits per BinDur of wall time from load start, for
	// recovery-to-baseline measurement.
	Bins   []uint64
	BinDur time.Duration

	// Metas holds committed transactions' metadata (systems that expose
	// it) for the serializability oracle; UnknownMetas are the undecided
	// ones awaiting post-run resolution.
	Metas        []*types.TxMeta
	UnknownMetas []*types.TxMeta
}

// arrival is one intended transaction: user seq%Users's next request,
// due at offset due from load start.
type arrival struct {
	due     time.Duration
	user    int
	userSeq uint64
}

// metaTx is the optional SysTx extension systems expose for
// serializability auditing.
type metaTx interface{ Meta() *types.TxMeta }

// rate returns the offered rate at offset t into the profile.
func rateAt(phases []LoadPhase, t time.Duration) float64 {
	for _, p := range phases {
		if t < p.Dur {
			frac := float64(t) / float64(p.Dur)
			return p.StartRate + (p.EndRate-p.StartRate)*frac
		}
		t -= p.Dur
	}
	return 0
}

// OpenLoad drives sys with open-loop Poisson arrivals per cfg and
// returns the aggregate. The dispatcher generates the arrival schedule
// in real time (exponential gaps at the instantaneous rate) and hands
// arrivals to Sessions worker goroutines over a MaxPending-bounded
// queue; a full queue drops the arrival explicitly. Latency is
// completion time minus intended arrival time, so both service time and
// queueing delay appear in the tail.
func OpenLoad(sys benchharness.System, gen workload.Generator, cfg LoadConfig) OpenResult {
	cfg.withDefaults()
	total := cfg.Total()

	var (
		offered atomic.Uint64
		dropped atomic.Uint64
		tally   benchharness.Tally // every completion counts: no window gate

		calmLat  = &metrics.Histogram{}
		stormLat = &metrics.Histogram{}
	)
	// Commit bins: generously sized for the drain tail after the last
	// arrival; completions past the end clamp into the final bin.
	bins := make([]atomic.Uint64, int(total/cfg.Bin)+8)

	var (
		mu           sync.Mutex
		metas        []*types.TxMeta
		unknownMetas []*types.TxMeta
	)
	keep := func(list *[]*types.TxMeta, tx benchharness.SysTx) {
		if mt, ok := tx.(metaTx); ok {
			mu.Lock()
			*list = append(*list, mt.Meta())
			mu.Unlock()
		}
	}

	arrivals := make(chan arrival, cfg.MaxPending)
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Sessions; w++ {
		// A timeout is terminal for its arrival (Unknown, resolved after
		// the run); a definite abort retries up to MaxRetries times.
		ex := &benchharness.Executor{
			Sess: sys.NewSession(), Rng: rand.New(rand.NewSource(cfg.Seed + 7_000_003*int64(w+1))),
			Tally: &tally, MaxAttempts: cfg.MaxRetries + 1, Open: true,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range arrivals {
				// The user's own deterministic stream: which session runs
				// the request must not change what the user asked for.
				userRng := rand.New(rand.NewSource(int64(userStream(cfg.Seed, a.user, a.userSeq))))
				out, lat, tx := ex.Exec(gen.Next(userRng), start.Add(a.due))
				switch out {
				case benchharness.Committed:
					switch classify(a.due, cfg.StormStart, cfg.StormEnd) {
					case classCalm:
						calmLat.Observe(lat)
					case classStorm:
						stormLat.Observe(lat)
					}
					bins[min(int((a.due+lat)/cfg.Bin), len(bins)-1)].Add(1)
					keep(&metas, tx)
				case benchharness.Unknown:
					keep(&unknownMetas, tx)
				}
			}
		}()
	}

	// Dispatcher: walk the Poisson schedule in real time. Gaps are
	// exponential at the instantaneous profile rate; a due arrival that
	// finds the queue full is dropped, never queued late.
	dispatchRng := rand.New(rand.NewSource(cfg.Seed))
	userSeq := make([]uint64, cfg.Users)
	var due time.Duration
	seq := 0
	for {
		r := rateAt(cfg.Phases, due)
		if r <= 0 {
			break
		}
		gap := time.Duration(dispatchRng.ExpFloat64() / r * float64(time.Second))
		// Floor pathological gaps so a momentary huge rate cannot spin.
		if gap < 10*time.Microsecond {
			gap = 10 * time.Microsecond
		}
		due += gap
		if due >= total {
			break
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		user := seq % cfg.Users
		a := arrival{due: due, user: user, userSeq: userSeq[user]}
		userSeq[user]++
		seq++
		offered.Add(1)
		select {
		case arrivals <- a:
		default:
			dropped.Add(1)
		}
	}
	close(arrivals)
	wg.Wait()

	res := OpenResult{
		Offered:   offered.Load(),
		Commits:   tally.Outcomes[benchharness.Committed].Load(),
		AppAborts: tally.Outcomes[benchharness.AppAborted].Load(),
		Starved:   tally.Outcomes[benchharness.Starved].Load(),
		Unknowns:  tally.Outcomes[benchharness.Unknown].Load(),
		Dropped:   dropped.Load(),
		Elapsed:   time.Since(start),
		BinDur:    cfg.Bin,
	}
	calm, storm, all := calmLat.SnapshotHist(), stormLat.SnapshotHist(), tally.Lat.SnapshotHist()
	const ms = 1e6
	res.CalmMeanMs = calm.MeanNanos() / ms
	res.CalmP99Ms = calm.Quantile(0.99) / ms
	res.StormP99Ms = storm.Quantile(0.99) / ms
	res.AllMeanMs = all.MeanNanos() / ms
	res.AllP99Ms = all.Quantile(0.99) / ms
	res.CalmCount = calmLat.Count()
	res.StormCount = stormLat.Count()
	res.Bins = make([]uint64, len(bins))
	for i := range bins {
		res.Bins[i] = bins[i].Load()
	}
	res.Metas = metas
	res.UnknownMetas = unknownMetas
	return res
}

const (
	classCalm = iota
	classStorm
	classPost
)

// classify buckets an arrival by its intended time relative to the
// declared storm window. With no window, everything is calm.
func classify(due, stormStart, stormEnd time.Duration) int {
	if stormStart == 0 && stormEnd == 0 {
		return classCalm
	}
	switch {
	case due < stormStart:
		return classCalm
	case due < stormEnd:
		return classStorm
	default:
		return classPost
	}
}

// userStream derives user u's op-n rng seed from the run seed —
// splitmix64 over the packed identity, mirroring internal/faults's
// identity-derived decision streams.
func userStream(seed int64, user int, n uint64) uint64 {
	z := uint64(seed) ^ (uint64(user)<<32 | n&math.MaxUint32)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
