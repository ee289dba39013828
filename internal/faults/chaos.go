package faults

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/replica"
	"repro/internal/transport"
	"repro/internal/types"
)

// Chaos is a mutable, composable link policy for scenario storms: a
// background seeded drop rate plus a partition set, both changeable while
// traffic flows. Install Policy() once on a transport.Local and drive the
// knobs from a chaos schedule (internal/scenario); the policy reads its
// state under the Chaos mutex on every send, so an Isolate or Heal takes
// effect on the next message.
//
// Partition semantics: a message is cut when exactly one endpoint is in
// the isolated set — isolated nodes form an island that can still talk
// among itself, and everyone else keeps talking around it, which is what
// a real network partition does.
type Chaos struct {
	// mu guards the isolation set, the drop probability and the per-link
	// rng table; the policy callback takes it on every send.
	mu       sync.Mutex
	seed     int64
	dropP    float64
	links    map[[2]transport.Addr]*rand64
	isolated map[transport.Addr]bool
}

// rand64 is a tiny splitmix64 stream: one allocation per link, no
// math/rand lock, deterministic per link in link-call order.
type rand64 struct{ state uint64 }

func (r *rand64) next() float64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return unit(z ^ (z >> 31))
}

// NewChaos builds an inactive chaos policy (no drops, no partition).
func NewChaos(seed int64) *Chaos {
	return &Chaos{
		seed:     seed,
		links:    make(map[[2]transport.Addr]*rand64),
		isolated: make(map[transport.Addr]bool),
	}
}

// Policy returns the LinkPolicy to install on the transport. The policy
// consults the Chaos state on every send, so knob changes apply to
// in-flight traffic immediately.
func (c *Chaos) Policy() transport.LinkPolicy {
	return func(from, to transport.Addr, msg any) (time.Duration, bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if len(c.isolated) > 0 && c.isolated[from] != c.isolated[to] {
			return 0, true
		}
		if c.dropP > 0 {
			key := [2]transport.Addr{from, to}
			rng := c.links[key]
			if rng == nil {
				rng = &rand64{state: mix(c.seed, addrBytes(from), addrBytes(to))}
				c.links[key] = rng
			}
			if rng.next() < c.dropP {
				return 0, true
			}
		}
		return 0, false
	}
}

// SetDrop sets the background per-message drop probability (0 disables).
func (c *Chaos) SetDrop(p float64) {
	c.mu.Lock()
	c.dropP = p
	c.mu.Unlock()
}

// Isolate replaces the isolated set: messages between an isolated and a
// non-isolated endpoint are cut until Heal (or the next Isolate).
func (c *Chaos) Isolate(addrs ...transport.Addr) {
	c.mu.Lock()
	c.isolated = make(map[transport.Addr]bool, len(addrs))
	for _, a := range addrs {
		c.isolated[a] = true
	}
	c.mu.Unlock()
}

// Heal clears the partition; background drops (SetDrop) are unaffected.
func (c *Chaos) Heal() {
	c.mu.Lock()
	c.isolated = make(map[transport.Addr]bool)
	c.mu.Unlock()
}

// DiskChaos injects fsync latency into replica write-ahead logs — the
// slow-disk primitive of scenario storms. Wire Delay into
// basil.Options.WALSyncDelay at cluster construction; Arm/Disarm flip it
// mid-run. All methods are safe for concurrent use: the delay is an
// atomic and the target set is written once per Arm under the mutex.
type DiskChaos struct {
	delayNs atomic.Int64
	// mu guards targets; Delay reads it on every fsync.
	mu      sync.Mutex
	targets map[[2]int32]bool // nil or empty = every replica
}

// Arm starts injecting delay into each targeted replica's fsyncs
// (targets as (shard, index) pairs; none = all replicas).
func (d *DiskChaos) Arm(delay time.Duration, targets ...[2]int32) {
	d.mu.Lock()
	d.targets = make(map[[2]int32]bool, len(targets))
	for _, t := range targets {
		d.targets[t] = true
	}
	d.mu.Unlock()
	d.delayNs.Store(int64(delay))
}

// Disarm stops the injection.
func (d *DiskChaos) Disarm() { d.delayNs.Store(0) }

// Delay implements the basil.Options.WALSyncDelay contract.
func (d *DiskChaos) Delay(shard, index int32) time.Duration {
	ns := d.delayNs.Load()
	if ns <= 0 {
		return 0
	}
	d.mu.Lock()
	ok := len(d.targets) == 0 || d.targets[[2]int32{shard, index}]
	d.mu.Unlock()
	if !ok {
		return 0
	}
	return time.Duration(ns)
}

// EquivocatingReplica is the replica-side twin of the equivocating client
// (internal/client/faulty.go FaultEquivReal): while armed, it sends
// *different* signed ST1 votes for the same transaction to different
// recipients — commit to some clients, abort to others — while its stored
// vote, WAL promise and local state stay honest. Which recipient sees
// which vote is a pure function of (seed, transaction, recipient), so an
// armed storm is reproducible from its seed. Arm/Disarm are safe to call
// while the replica serves traffic.
type EquivocatingReplica struct {
	seed  int64
	armed atomic.Bool
}

// NewEquivocatingReplica builds a disarmed equivocator.
func NewEquivocatingReplica(seed int64) *EquivocatingReplica {
	return &EquivocatingReplica{seed: seed}
}

// Arm enables (or disables) the equivocation.
func (e *EquivocatingReplica) Arm(on bool) { e.armed.Store(on) }

// MutateVote implements replica.ByzantineStrategy: the stored vote stays
// honest — equivocation happens per recipient at send time.
func (e *EquivocatingReplica) MutateVote(_ types.TxID, v types.Vote) types.Vote { return v }

// DropRead implements replica.ByzantineStrategy.
func (e *EquivocatingReplica) DropRead(string) bool { return false }

// EquivocateVote implements replica.VoteEquivocator: while armed, half of
// all (transaction, recipient) pairs — chosen by seed-derived hash — get
// the opposite vote.
func (e *EquivocatingReplica) EquivocateVote(id types.TxID, to transport.Addr, vote types.Vote) types.Vote {
	if !e.armed.Load() || vote == types.VoteNone {
		return vote
	}
	if mix(e.seed, id[:], addrBytes(to))&1 == 0 {
		return vote
	}
	if vote == types.VoteCommit {
		return types.VoteAbort
	}
	return types.VoteCommit
}

// Compile-time interface checks: the equivocator must satisfy both the
// base strategy and the per-recipient extension the replica consults.
var (
	_ replica.ByzantineStrategy = (*EquivocatingReplica)(nil)
	_ replica.VoteEquivocator   = (*EquivocatingReplica)(nil)
)
