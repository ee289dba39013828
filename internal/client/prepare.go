package client

import (
	"time"

	"repro/internal/quorum"
	"repro/internal/types"
)

// shardTally accumulates one shard's stage-1 votes (paper §4.2 step 4).
type shardTally struct {
	shard        int32
	seen         map[int32]bool
	commits      []types.ST1Reply
	aborts       []types.ST1Reply
	conflict     *types.DecisionCert
	conflictMeta *types.TxMeta
	conflictVote *types.ST1Reply
	// blockers are prepared-but-undecided transactions replicas reported
	// as the cause of abort votes; the client finishes them before
	// retrying (§5 invariant).
	blockers map[types.TxID]*types.TxMeta
}

func newTallies(shards []int32) map[int32]*shardTally {
	m := make(map[int32]*shardTally, len(shards))
	for _, s := range shards {
		m[s] = &shardTally{shard: s, seen: make(map[int32]bool),
			blockers: make(map[types.TxID]*types.TxMeta)}
	}
	return m
}

// add records a validated vote; returns false on duplicates.
func (t *shardTally) add(r *types.ST1Reply) bool {
	if t.seen[r.ReplicaID] {
		return false
	}
	t.seen[r.ReplicaID] = true
	if r.Vote == types.VoteCommit {
		t.commits = append(t.commits, *r)
	} else {
		t.aborts = append(t.aborts, *r)
	}
	return true
}

// outcome classifies the tally.
func (t *shardTally) outcome(qc quorum.Config) quorum.ShardOutcome {
	return qc.Classify(len(t.commits), len(t.aborts), t.conflict != nil)
}

// settled reports whether waiting longer can still improve this shard's
// classification toward a fast outcome.
func (t *shardTally) settled(qc quorum.Config) bool {
	o := t.outcome(qc)
	switch o {
	case quorum.OutcomeCommitFast, quorum.OutcomeAbortFast:
		return true
	case quorum.OutcomePending:
		return false
	default:
		return !qc.FastStillPossible(len(t.commits), len(t.aborts))
	}
}

// toVoteTally converts to the wire representation used in ST2 requests.
func (t *shardTally) toVoteTally(id types.TxID, qc quorum.Config) types.VoteTally {
	vt := types.VoteTally{TxID: id, ShardID: t.shard}
	o := t.outcome(qc)
	switch o {
	case quorum.OutcomeCommitFast, quorum.OutcomeCommitSlow:
		vt.Vote = types.VoteCommit
		vt.Replies = append(vt.Replies, t.commits...)
	default:
		vt.Vote = types.VoteAbort
		if t.conflict != nil && t.conflictVote != nil {
			vt.Conflict = t.conflict
			vt.ConflictMeta = t.conflictMeta
			vt.Replies = []types.ST1Reply{*t.conflictVote}
		} else {
			vt.Replies = append(vt.Replies, t.aborts...)
		}
	}
	return vt
}

// acceptST1Reply validates and tallies one ST1 vote.
func (c *Client) acceptST1Reply(id types.TxID, tallies map[int32]*shardTally, r *types.ST1Reply) {
	t := tallies[r.ShardID]
	if t == nil || r.TxID != id || r.Vote == types.VoteNone {
		return
	}
	if c.qv.VerifyST1Reply(r, id) != nil {
		return
	}
	if !t.add(r) {
		return
	}
	if r.Vote == types.VoteAbort && r.BlockedBy != nil && len(t.blockers) < 4 {
		t.blockers[r.BlockedBy.ID()] = r.BlockedBy
	}
	// Abort-with-conflict fast path (case 5): validate the embedded
	// commit certificate of the conflicting transaction.
	if r.Vote == types.VoteAbort && r.Conflict != nil && r.ConflictMeta != nil && t.conflict == nil {
		if r.ConflictMeta.ID() == r.Conflict.TxID &&
			r.Conflict.Decision == types.DecisionCommit &&
			c.qv.VerifyDecisionCert(r.Conflict, r.ConflictMeta) == nil {
			t.conflict = r.Conflict
			t.conflictMeta = r.ConflictMeta
			t.conflictVote = r
		}
	}
}

// prepareResult is the aggregate of stage 1.
type prepareResult struct {
	decision types.Decision
	fast     bool // decision durable without ST2
	tallies  map[int32]*shardTally
}

// decide computes the global 2PC outcome from settled tallies: commit iff
// every shard voted commit; fast iff there are no slow shards or a single
// fast-abort shard exists (paper §4.2 step 4).
func (c *Client) decide(tallies map[int32]*shardTally) (prepareResult, error) {
	res := prepareResult{decision: types.DecisionCommit, fast: true, tallies: tallies}
	for _, t := range tallies {
		switch t.outcome(c.qc) {
		case quorum.OutcomePending:
			return res, errPending
		case quorum.OutcomeAbortFast:
			res.decision = types.DecisionAbort
			res.fast = true // a single fast abort V-CERT suffices
			return res, nil
		case quorum.OutcomeAbortSlow:
			res.decision = types.DecisionAbort
			res.fast = false
		case quorum.OutcomeCommitSlow:
			res.fast = false
		case quorum.OutcomeCommitFast:
			// contributes a durable commit vote
		}
	}
	if c.cfg.DisableFastPath {
		res.fast = false
	}
	return res, nil
}

// votes is stage 1's accumulator (paper §4.2 step 4): it tallies verified
// votes per shard, finishes once every shard settles, and settles once
// every shard classifies.
type votes struct {
	c        *Client
	id       types.TxID
	tallies  map[int32]*shardTally
	deadline time.Time // the commit attempt's RetryTimeout
}

func (v *votes) add(m any) progress {
	if r, ok := m.(*types.ST1Reply); ok && r.RPKind != types.RPCert && r.ST2R == nil {
		v.c.acceptST1Reply(v.id, v.tallies, r)
	}
	settled, classified := true, true
	for _, t := range v.tallies {
		settled = settled && t.settled(v.c.qc)
		classified = classified && t.outcome(v.c.qc) != quorum.OutcomePending
	}
	switch {
	case settled:
		return finished
	case classified:
		return settling // give stragglers FastPathWait to complete the fast path
	}
	return collecting
}

// expire keeps waiting until the deadline: replicas queue our vote request
// and answer once their dependency wait resolves.
func (v *votes) expire() error {
	if time.Now().After(v.deadline) {
		return ErrTimeout
	}
	return errRearm
}

// stage1 collects meta's stage-1 votes from ch and decides. On each phase
// tick it rebroadcasts st1 to unsettled shards (st1 nil: never resends),
// and the first tick finishes stalled dependencies, unblocking the
// replicas that defer our vote (paper §5).
func (c *Client) stage1(meta *types.TxMeta, id types.TxID, depMetas map[types.TxID]*types.TxMeta,
	ch <-chan any, st1 *types.ST1Request) (prepareResult, error) {
	v := &votes{c: c, id: id, tallies: newTallies(meta.Shards), deadline: time.Now().Add(c.cfg.RetryTimeout)}
	var resend func()
	if st1 != nil {
		resend = c.resendUnsettled(v.tallies, st1)
	}
	var tick func()
	if len(depMetas) > 0 {
		tick = func() {
			c.Stats.Recoveries.Add(1)
			for _, dm := range depMetas {
				_, _, _ = c.FinishTransaction(dm)
			}
		}
	}
	if err := c.collect(ch, v, phasePrepare, resend, tick); err != nil {
		return prepareResult{}, err
	}
	return c.decide(v.tallies)
}

// resendUnsettled rebroadcasts msg only to shards that can still improve:
// settled tallies owe us nothing, and re-asking them is pure load.
func (c *Client) resendUnsettled(tallies map[int32]*shardTally, msg any) func() {
	return func() {
		for s, t := range tallies {
			if !t.settled(c.qc) {
				c.broadcastShard(s, msg)
			}
		}
	}
}

// runPrepare executes stage 1 (vote aggregation), optionally stage 2
// (decision logging) and the writeback phase for meta. depMetas supplies
// writer metadata for this transaction's dependencies so stalled ones can
// be finished (paper §5).
func (c *Client) runPrepare(meta *types.TxMeta, depMetas map[types.TxID]*types.TxMeta) (types.Decision, error) {
	id := meta.ID()
	reqID, ch := c.newRequest(c.qc.N() * len(meta.Shards) * 2)
	defer c.endRequest(reqID)
	prepStart := c.tracer.Start(c.curTC)
	st1 := &types.ST1Request{ReqID: reqID, ClientID: uint64(c.cfg.ID), Meta: meta, TC: c.curTC}
	for _, s := range meta.Shards {
		c.broadcastShard(s, st1)
	}
	res, err := c.stage1(meta, id, depMetas, ch, st1)
	c.tracer.End(c.curTC, c.traceNode, "client.prepare", c.curRoot, prepStart)
	if err != nil {
		return types.DecisionNone, err
	}
	if res.fast {
		c.Stats.FastPathTaken.Add(1)
	} else {
		c.Stats.SlowPathTaken.Add(1)
	}
	if _, err := c.finish(meta, id, res); err != nil {
		// The logging shard disagreed or starved: recover our own
		// transaction via the fallback.
		dec, _, err := c.FinishTransaction(meta)
		return dec, err
	}
	if res.decision == types.DecisionAbort {
		c.recoverBlockers(res.tallies)
	}
	return res.decision, nil
}

// finish makes res durable — its fast-path certificate, or a logged one
// from stage 2 — and writes it back (paper §4.2–4.3).
func (c *Client) finish(meta *types.TxMeta, id types.TxID, res prepareResult) (*types.DecisionCert, error) {
	var cert *types.DecisionCert
	var err error
	if res.fast {
		cert = c.buildFastCert(id, meta, res)
	} else if cert, err = c.logDecision(meta, id, res); err != nil {
		return nil, err
	}
	c.writeback(meta, res.decision, cert)
	return cert, nil
}

// recoverBlockers finishes the prepared-but-undecided transactions that
// replicas blamed for this abort, so the retry finds them decided. The
// client deduplicates recent recoveries to bound wasted work if Byzantine
// replicas report bogus blockers.
func (c *Client) recoverBlockers(tallies map[int32]*shardTally) {
	done := 0
	for _, t := range tallies {
		for id, meta := range t.blockers {
			if done >= 2 {
				return
			}
			if !c.markRecovery(id) {
				continue
			}
			done++
			c.Stats.Recoveries.Add(1)
			_, _, _ = c.FinishTransaction(meta)
		}
	}
}

// buildFastCert assembles the fast-path decision certificate: per-shard
// fast commit V-CERTs, or a single fast-abort / conflict V-CERT.
func (c *Client) buildFastCert(id types.TxID, meta *types.TxMeta, res prepareResult) *types.DecisionCert {
	cert := &types.DecisionCert{TxID: id, Decision: res.decision}
	if res.decision == types.DecisionCommit {
		for _, s := range meta.Shards {
			t := res.tallies[s]
			cert.Shards = append(cert.Shards, types.ShardCert{
				ShardID: s, Kind: types.CertST1Fast, Vote: types.VoteCommit,
				ST1Rs: append([]types.ST1Reply(nil), t.commits...),
			})
		}
		return cert
	}
	for _, t := range res.tallies {
		switch {
		case t.conflict != nil && t.conflictVote != nil:
			cert.Shards = []types.ShardCert{{
				ShardID: t.shard, Kind: types.CertConflict, Vote: types.VoteAbort,
				ST1Rs:    []types.ST1Reply{*t.conflictVote},
				Conflict: t.conflict, ConflictMeta: t.conflictMeta,
			}}
			return cert
		case len(t.aborts) >= c.qc.FastAbort():
			cert.Shards = []types.ShardCert{{
				ShardID: t.shard, Kind: types.CertST1Fast, Vote: types.VoteAbort,
				ST1Rs: append([]types.ST1Reply(nil), t.aborts...),
			}}
			return cert
		}
	}
	// Unreachable when res.fast held; return a defensive empty abort cert.
	return cert
}

// logDecision runs stage 2: store the decision on the logging shard and
// assemble the V-CERT_Slog from n-f matching acknowledgements. A logging
// shard that logged another decision (another client or an equivocator
// raced us) yields errPending, so the caller falls back to recovery.
func (c *Client) logDecision(meta *types.TxMeta, id types.TxID, res prepareResult) (*types.DecisionCert, error) {
	reqID, ch := c.newRequest(c.qc.N() * 2)
	defer c.endRequest(reqID)
	st2Start := c.tracer.Start(c.curTC)
	st2 := &types.ST2Request{
		ReqID: reqID, ClientID: uint64(c.cfg.ID), TxID: id, Meta: meta,
		Decision: res.decision, Tallies: c.voteTallies(id, res.tallies), TC: c.curTC,
	}
	resend := func() { c.broadcastShard(meta.LogShard(), st2) }
	resend()
	q := c.newST2Quorum(id, meta.LogShard(), res.decision, make(map[int32]types.ST2Reply))
	err := c.collect(ch, q, phaseST2, resend, nil)
	c.tracer.End(c.curTC, c.traceNode, "client.st2", c.curRoot, st2Start)
	if err == nil && q.cert.Decision != res.decision {
		err = errPending
	}
	if err != nil {
		return nil, err
	}
	return q.cert, nil
}

// voteTallies is the wire form of stage-1 tallies that ST2 and InvokeFB
// carry as justification.
func (c *Client) voteTallies(id types.TxID, tallies map[int32]*shardTally) []types.VoteTally {
	out := make([]types.VoteTally, 0, len(tallies))
	for _, t := range tallies {
		out = append(out, t.toVoteTally(id, c.qc))
	}
	return out
}

// writeback broadcasts the decision certificate to every participant shard
// (paper §4.3 step 1); it is asynchronous and needs no acknowledgement.
func (c *Client) writeback(meta *types.TxMeta, dec types.Decision, cert *types.DecisionCert) {
	wbStart := c.tracer.Start(c.curTC)
	wb := &types.WritebackRequest{
		ClientID: uint64(c.cfg.ID), TxID: cert.TxID, Decision: dec, Cert: cert, Meta: meta,
		TC: c.curTC,
	}
	for _, s := range meta.Shards {
		c.broadcastShard(s, wb)
	}
	c.tracer.End(c.curTC, c.traceNode, "client.writeback", c.curRoot, wbStart)
}
