package scenario

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/basil"
	"repro/internal/benchharness"
	"repro/internal/client"
	"repro/internal/faults"
	"repro/internal/replica"
	"repro/internal/types"
	"repro/internal/verify"
	"repro/internal/workload"
)

// Result is one scenario's full outcome: the open-loop aggregate, the
// protocol-level evidence the verdict consumed, and the verdict itself.
type Result struct {
	Name string
	Desc string
	Seed int64

	Open          OpenResult
	ThroughputTxs float64
	Sheds         uint64
	Overloads     uint64
	SpamSent      uint64
	Unresolved    int
	Audited       int
	RecoveryMs    float64
	FastPathShare float64
	Events        []string
	EventErrs     []string

	Verdict Verdict
}

// RunScenario builds the scenario's cluster, runs its open-loop load and
// chaos schedule, resolves every unknown outcome through the recovery
// protocol, audits final reads against the DSG oracle, and returns the
// verdict. The run is reproducible from (scenario, seed, tuning): load
// arrivals, workload draws, spam pacing and every chaos decision derive
// from the seed.
func RunScenario(sc Scenario, seed int64, tn Tuning) (Result, error) {
	if seed == 0 {
		seed = 1
	}
	if tn.RateScale <= 0 {
		tn = DefaultTuning()
	}

	// Scale the offered load to the build.
	load := sc.Load
	load.Seed = seed
	load.Phases = append([]LoadPhase(nil), sc.Load.Phases...)
	for i := range load.Phases {
		load.Phases[i].StartRate *= tn.RateScale
		load.Phases[i].EndRate *= tn.RateScale
	}

	rt := &Runtime{
		Chaos: faults.NewChaos(seed),
		Disk:  &faults.DiskChaos{},
		Seed:  seed,
	}

	opts := basil.Options{
		F:               1,
		Shards:          max(sc.Shards, 1),
		BatchSize:       16,
		VerifyWorkers:   2,
		DispatchQueue:   sc.DispatchQueue,
		DeltaMicros:     sc.DeltaMicros,
		CheckpointEvery: sc.CheckpointEvery,
		PhaseTimeout:    100 * time.Millisecond,
		RetryTimeout:    400 * time.Millisecond,
		Seed:            seed,
	}
	if raceEnabled {
		opts.PhaseTimeout *= 4
		opts.RetryTimeout *= 4
	}
	if sc.Durable {
		dir, err := os.MkdirTemp("", "scenario-"+sc.Name+"-")
		if err != nil {
			return Result{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		defer os.RemoveAll(dir)
		opts.DataDir = dir
		opts.WALSyncDelay = rt.Disk.Delay
	}
	if sc.EquivReplica >= 0 {
		rt.Equiv = faults.NewEquivocatingReplica(seed)
		target := int32(sc.EquivReplica)
		opts.ReplicaByzantine = func(shard, index int32) replica.ByzantineStrategy {
			if shard == 0 && index == target {
				return rt.Equiv
			}
			return nil
		}
	}

	cl := basil.NewCluster(opts)
	defer cl.Close()
	rt.Cluster = cl
	cl.Net().SetPolicy(rt.Chaos.Policy())

	gen := workload.NewYCSB(workload.YCSBConfig{
		Keys: sc.Keys, ReadOps: sc.ReadOps, WriteOps: sc.WriteOps, ValueSize: 32,
	})
	sys := &benchharness.BasilSystem{C: cl, Label: sc.Name}
	benchharness.Populate(sys, gen)

	// Spammers (if any) attack for the whole run: stall-early blind
	// writes over a private key range, paced so the in-process attacker
	// saturates intake without out-spinning its victims for CPU.
	spam := &benchharness.FaultyLoad{
		Mode: client.FaultStallEarly, Fraction: 1, Rate: float64(sc.SpamRate) * tn.SpamScale,
	}
	spammers := make([]*client.Client, sc.Spammers)
	for i := range spammers {
		spammers[i] = cl.NewClient().Inner()
	}
	spam.Start(spammers, blindWrites{keys: 512}, seed+900_001)

	// The storm: chaos schedule over the open-loop run.
	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup
	start := time.Now()
	runSchedule(rt, sc.Events, start, stopChaos, &chaosWG)

	open := OpenLoad(sys, gen, load)

	close(stopChaos)
	chaosWG.Wait()
	spam.Stop()

	// Quiesce: release every injector so the post-run resolution and
	// audit see a healthy cluster (the storm itself is already over).
	rt.Chaos.Heal()
	rt.Chaos.SetDrop(0)
	rt.Disk.Disarm()
	if rt.Equiv != nil {
		rt.Equiv.Arm(false)
	}

	// Resolve every unknown outcome through the recovery protocol: an
	// unknown that committed must count in the DSG. Unknowns can depend
	// on each other, so the sweep repeats — finishing one transaction
	// unblocks replicas deferring another's vote.
	var checker verify.Checker
	for _, m := range open.Metas {
		checker.Add(verify.FromMeta(m))
	}
	resolver := cl.NewClient()
	pending := open.UnknownMetas
	for pass := 0; pass < 6 && len(pending) > 0; pass++ {
		var next []*types.TxMeta
		for _, meta := range pending {
			dec, _, err := resolver.Inner().FinishTransaction(meta)
			if err != nil {
				next = append(next, meta)
				continue
			}
			if dec == types.DecisionCommit {
				checker.Add(verify.FromMeta(meta))
			}
		}
		pending = next
	}

	// Final-read audit: read a sample of the key space through fresh
	// transactions and feed them to the oracle. A lost committed write
	// makes the audit read an older version at a newer timestamp, which
	// the timestamp-order check rejects.
	audited := auditReads(cl, gen, sc.Keys, &checker)

	serialErr := checker.CheckSerializable()
	if serialErr == nil {
		serialErr = checker.CheckTimestampOrderConsistent()
	}

	res := Result{
		Name: sc.Name, Desc: sc.Desc, Seed: seed,
		Open:          open,
		ThroughputTxs: float64(open.Commits) / open.Elapsed.Seconds(),
		SpamSent:      spam.Sent.Load(),
		Unresolved:    len(pending),
		Audited:       audited,
		FastPathShare: sys.FastPathShare(),
		RecoveryMs:    recoveryMs(open.Bins, open.BinDur, load.StormStart, load.StormEnd, sc.SLO.RecoverFrac),
	}
	for s := 0; s < cl.Shards(); s++ {
		for i := 0; i < cl.ReplicaCount(); i++ {
			res.Sheds += cl.Replica(s, i).Stats.Shed.Load()
		}
	}
	res.Overloads = sys.Overloads()
	res.Events, res.EventErrs = rt.events()

	res.Verdict = sc.SLO.evaluate(verdictInput{
		open:       open,
		serialErr:  serialErr,
		audited:    audited,
		unresolved: len(pending),
		sheds:      res.Sheds,
		overloads:  res.Overloads,
		recoveryMs: res.RecoveryMs,
		eventErrs:  res.EventErrs,
		hasEvents:  len(sc.Events) > 0,
		tuning:     tn,
	})
	return res, nil
}

// auditReads runs read-only transactions over a key sample and adds the
// committed ones to the checker. Reads batch 8 keys per transaction and
// tolerate a couple of retries each; the return value is how many audit
// transactions made it into the DSG.
func auditReads(cl *basil.Cluster, gen *workload.YCSB, keys uint64, checker *verify.Checker) int {
	sample := keys
	if sample > 48 {
		sample = 48
	}
	step := keys / sample
	if step == 0 {
		step = 1
	}
	audited := 0
	auditor := cl.NewClient()
	for base := uint64(0); base < sample; base += 8 {
		var meta *types.TxMeta
		for attempt := 0; attempt < 3; attempt++ {
			tx := auditor.Begin()
			ok := true
			for i := base; i < base+8 && i < sample; i++ {
				if _, err := tx.Read(gen.Key(i * step % keys)); err != nil {
					ok = false
					break
				}
			}
			if !ok {
				tx.Abort()
				continue
			}
			if tx.Commit() == nil {
				meta = tx.Meta()
			}
			break
		}
		if meta != nil {
			checker.Add(verify.FromMeta(meta))
			audited++
		}
	}
	return audited
}

// blindWrites is the spammers' transaction body: one blind write over a
// private spam:N key range, no reads. A body with reads would throttle
// the spammer on its own round trips, and disjoint keys keep the attack
// a pure intake flood: honest transactions never read the spammer's
// abandoned prepared writes, so honest degradation is queueing, not
// dependency poisoning.
type blindWrites struct{ keys uint64 }

func (blindWrites) Name() string                  { return "blind-writes" }
func (blindWrites) Populate(func(string, []byte)) {}

func (g blindWrites) Next(rng *rand.Rand) workload.TxnFunc {
	key := fmt.Sprintf("spam:%d", rng.Uint64()%g.keys)
	return workload.TxnFunc{Name: "spam", Body: func(tx workload.Tx) error {
		tx.Write(key, []byte{1})
		return nil
	}}
}
