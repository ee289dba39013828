package client

import (
	"time"

	"repro/internal/types"
)

// FinishTransaction drives a stalled transaction (typically somebody
// else's, acquired as a dependency) to a decision (paper §5).
//
// Common case: a Recovery Prepare (RP) resend of ST1 lets the client
// fast-forward from whatever artifacts replicas hold — stored votes, a
// logged ST2 decision, or a full certificate — and finish the transaction
// on the normal path. Divergent case: replicas of the logging shard hold
// conflicting logged decisions (an equivocating client, or concurrent
// recoverers); the client then drives fallback leader election rounds
// until n-f replicas converge on one decision.
func (c *Client) FinishTransaction(meta *types.TxMeta) (types.Decision, *types.DecisionCert, error) {
	id := meta.ID()
	deadline := time.Now().Add(c.cfg.RetryTimeout)

	// Recovery is a tail event by definition: force-capture the invoking
	// transaction's trace before the RP broadcast so the recovery requests
	// already carry the upgraded context.
	c.forceTrace(forcedRecovery, "recovery")
	if rcStart := c.tracer.Start(c.curTC); rcStart != 0 {
		defer func() { c.tracer.End(c.curTC, c.traceNode, "client.recovery", c.curRoot, rcStart) }()
	}

	// --- Common case: RP broadcast. ---
	reqID, ch := c.newRequest(c.qc.N() * (len(meta.Shards) + 1) * 2)
	rp := &types.ST1Request{ReqID: reqID, ClientID: uint64(c.cfg.ID), Meta: meta, Recovery: true, TC: c.curTC}
	for _, s := range meta.Shards {
		c.broadcastShard(s, rp)
	}
	p := &recoveryPhase{st2Quorum: c.newST2Quorum(id, meta.LogShard(), types.DecisionNone, make(map[int32]types.ST2Reply)),
		tallies: newTallies(meta.Shards)}
	err := c.collect(ch, p, phaseRecovery, c.resendUnsettled(p.tallies, rp), nil)
	c.endRequest(reqID)
	if p.cert != nil {
		c.writeback(meta, p.cert.Decision, p.cert)
		return p.cert.Decision, p.cert, nil
	}

	// If stage-1 votes classified and the logging shard shows no
	// divergence, finish on the normal path by logging the decision
	// ourselves.
	divergent := len(p.decisions) > 1 || (err != nil && len(p.latest) > 0)
	res, rerr := c.decide(p.tallies)
	if !divergent && rerr == nil {
		if cert, err := c.finish(meta, id, res); err == nil {
			return res.decision, cert, nil
		}
		// The logging shard disagreed: fall through.
	}

	// --- Divergent case: fallback leader election rounds. ---
	for round := 0; round < c.qc.N()+2; round++ {
		if round > 0 || c.retryHint > 0 {
			// Pace the rounds: jittered backoff, floored at any RetryAfter
			// hint an overloaded logging replica handed us. Back-to-back
			// rounds against a saturated shard only feed the overload.
			time.Sleep(c.retryDelay(round, c.takeRetryAfter()))
		}
		if time.Now().After(deadline) {
			return types.DecisionNone, nil, c.giveUp(phaseRecovery)
		}
		c.Stats.FallbackRounds.Add(1)
		c.forceTrace(forcedFallback, "fallback")
		reqID, ch := c.newRequest(c.qc.N() * 4)
		inv := &types.InvokeFB{
			ReqID: reqID, ClientID: uint64(c.cfg.ID), TxID: id, Meta: meta, TC: c.curTC,
		}
		for _, r := range p.latest {
			inv.ST2Rs = append(inv.ST2Rs, r)
		}
		if rerr == nil {
			inv.Decision = res.decision
			inv.Tallies = c.voteTallies(id, res.tallies)
		}
		resend := func() { c.broadcastShard(meta.LogShard(), inv) }
		resend()
		// Post-election ST2Rs certify once n-f match in decision and view.
		q := c.newST2Quorum(id, meta.LogShard(), types.DecisionNone, p.latest)
		_ = c.collect(ch, q, phaseFallback, resend, nil)
		c.endRequest(reqID)
		if q.cert != nil {
			c.writeback(meta, q.cert.Decision, q.cert)
			return q.cert.Decision, q.cert, nil
		}
	}
	return types.DecisionNone, nil, c.giveUp(phaseFallback)
}

// recoveryPhase accumulates RP replies. It finishes with a certificate
// when one surfaces or n-f matching logged decisions exist, and without
// one as soon as stage-1 votes alone classify every shard and no logged
// decision was seen.
type recoveryPhase struct {
	*st2Quorum
	tallies map[int32]*shardTally
}

func (p *recoveryPhase) add(m any) progress {
	if r, ok := m.(*types.ST1Reply); ok {
		switch {
		case r.RPKind == types.RPDecision && r.ST2R != nil:
			m = r.ST2R // the logged decision counts like a direct ST2R
		case r.RPKind != types.RPCert && r.RPKind != types.RPDecision:
			p.c.acceptST1Reply(p.id, p.tallies, r)
		}
	}
	if p.st2Quorum.add(m) == finished {
		return finished
	}
	if len(p.latest) > 0 {
		return collecting
	}
	for _, t := range p.tallies {
		if !t.settled(p.c.qc) {
			return collecting
		}
	}
	return finished
}
