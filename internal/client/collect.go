package client

import (
	"errors"
	"time"

	"repro/internal/types"
)

// progress is an accumulator's verdict after one reply.
type progress uint8

const (
	collecting progress = iota
	// settling: a result exists, but more replies may still improve it
	// (a classifiable stage-1 tally that could yet go fast); the collector
	// waits at most FastPathWait more.
	settling
	finished
)

// accumulator is one phase's reply state.
type accumulator interface {
	// add folds one reply (never an Overloaded shed) into the phase.
	add(m any) progress
	// expire reports how the phase ends when its timer fires: nil when a
	// result exists, or the error to return; errRearm keeps collecting.
	expire() error
}

// errRearm, returned by expire, re-arms the phase timer after the
// collector's tick and resend.
var errRearm = errors.New("basil: phase re-armed")

// Phases the client can give up in — the collector for read, prepare and
// st2; FinishTransaction for recovery and fallback. Each indexes
// Client.timeouts and labels basil_client_timeouts_total.
const (
	phaseRead = iota
	phasePrepare
	phaseST2
	phaseRecovery
	phaseFallback
)

var phaseNames = [...]string{"read", "prepare", "st2", "recovery", "fallback"}

// giveUp counts a give-up in phase p and returns ErrTimeout.
func (c *Client) giveUp(p int) error {
	c.timeouts[p].Add(1)
	return ErrTimeout
}

// collect feeds the replies arriving on ch to acc until it finishes, its
// settle window closes, or its timer expires for good. An Overloaded shed
// schedules resend after a jittered backoff (resend nil: only its hint is
// kept, for the caller's own retry). When expire re-arms, tick runs (once,
// on the first re-arm), then resend, then the timer restarts.
func (c *Client) collect(ch <-chan any, acc accumulator, phase int, resend, tick func()) error {
	timer := time.NewTimer(c.cfg.PhaseTimeout)
	defer timer.Stop()
	var settle, retry <-chan time.Time
	sheds := 0
	for {
		select {
		case m := <-ch:
			if ov, ok := m.(*types.Overloaded); ok {
				c.noteOverloaded(ov)
				if resend != nil && retry == nil {
					retry = time.After(c.retryDelay(sheds, c.takeRetryAfter()))
				}
				continue
			}
			switch acc.add(m) {
			case finished:
				return nil
			case settling:
				if settle == nil {
					settle = time.After(c.cfg.FastPathWait)
				}
			}
		case <-retry:
			sheds++
			retry = nil
			resend()
		case <-settle:
			return nil
		case <-timer.C:
			err := acc.expire()
			if err != errRearm {
				if err == ErrTimeout {
					return c.giveUp(phase)
				}
				return err
			}
			if tick != nil {
				tick()
				tick = nil
			}
			if resend != nil {
				resend() // replies may have been shed silently at the hard cap
			}
			timer.Reset(c.cfg.PhaseTimeout)
		}
	}
}

// st2Key groups logged decisions that can share one certificate.
type st2Key struct {
	dec  types.Decision
	view uint64
}

// st2Quorum is the logged-decision quorum behind stage 2, recovery and
// each fallback round. It groups verified ST2Rs from the logging shard by
// (decision, decision view), dedupes them by replica, and certifies once a
// group reaches LogQuorum. A valid RPCert short-circuits it with the
// certificate a replica already holds.
type st2Quorum struct {
	c     *Client
	id    types.TxID
	shard int32 // the logging shard
	// want is stage 2's decision; DecisionNone (recovery, fallback)
	// accepts either.
	want types.Decision

	groups    map[st2Key][]types.ST2Reply // deduped by replica
	decisions map[types.Decision]bool     // every decision a verified ST2R carried
	// latest holds each replica's highest-view ST2R: the view evidence an
	// InvokeFB carries. Fallback rounds share their recovery's map.
	latest map[int32]types.ST2Reply
	cert   *types.DecisionCert
}

// newST2Quorum starts a quorum for transaction id on its logging shard,
// filing view evidence into latest.
func (c *Client) newST2Quorum(id types.TxID, logShard int32, want types.Decision, latest map[int32]types.ST2Reply) *st2Quorum {
	return &st2Quorum{
		c: c, id: id, shard: logShard, want: want,
		groups:    make(map[st2Key][]types.ST2Reply),
		decisions: make(map[types.Decision]bool),
		latest:    latest,
	}
}

func (q *st2Quorum) add(m any) progress {
	switch r := m.(type) {
	case *types.ST2Reply:
		if q.addST2R(r) {
			return finished
		}
	case *types.ST1Reply:
		// An RP reply carrying a decision certificate that verifies for
		// this transaction ends the phase with that certificate.
		if r.RPKind == types.RPCert && r.Cert != nil && r.CertMeta != nil && r.CertMeta.ID() == q.id &&
			q.c.qv.VerifyDecisionCert(r.Cert, r.CertMeta) == nil {
			q.cert = r.Cert
			return finished
		}
	}
	return collecting
}

// expire: stage 2 that saw a logged decision other than its own yields
// errPending so the caller recovers; recovery and fallback rounds simply
// end without a quorum.
func (q *st2Quorum) expire() error {
	if q.want == types.DecisionNone {
		return errPending
	}
	for d := range q.decisions {
		if d != q.want {
			return errPending
		}
	}
	return ErrTimeout
}

// addST2R files one ST2R and reports whether it completed a certificate.
// Replies from any shard but the logging shard are rejected: a signature
// binds a reply to its own shard's replica, not to the shard this
// transaction logs on (the cross-shard confusion of the read path).
func (q *st2Quorum) addST2R(r *types.ST2Reply) bool {
	if r.ShardID != q.shard || q.c.qv.VerifyST2Reply(r, q.id) != nil {
		return false
	}
	q.decisions[r.Decision] = true
	if prev, ok := q.latest[r.ReplicaID]; !ok || prev.ViewCurrent < r.ViewCurrent {
		q.latest[r.ReplicaID] = *r
	}
	k := st2Key{r.Decision, r.ViewDecision}
	for _, o := range q.groups[k] {
		if o.ReplicaID == r.ReplicaID {
			return false
		}
	}
	q.groups[k] = append(q.groups[k], *r)
	if len(q.groups[k]) < q.c.qc.LogQuorum() {
		return false
	}
	vote := types.VoteCommit
	if k.dec == types.DecisionAbort {
		vote = types.VoteAbort
	}
	q.cert = &types.DecisionCert{
		TxID: q.id, Decision: k.dec,
		Shards: []types.ShardCert{{
			ShardID: q.shard, Kind: types.CertST2Logged, Vote: vote, ST2Rs: q.groups[k],
		}},
	}
	return true
}
