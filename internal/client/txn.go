package client

import (
	"sort"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// Txn is one interactive transaction (paper §4.1). Reads go to replicas;
// writes buffer locally until Commit. A Txn is single-goroutine.
type Txn struct {
	c  *Client
	ts types.Timestamp
	// begun anchors the end-to-end latency histogram (Begin -> commit).
	begun time.Time

	reads    []types.ReadEntry
	readKeys map[string]bool
	// readVals caches the value chosen for each read key so repeat reads
	// return exactly the bytes whose version is in the read set — never a
	// newer version committed between the two reads.
	readVals   map[string][]byte
	writes     map[string][]byte
	writeOrder []string
	deps       map[types.TxID]types.Dependency
	depMetas   map[types.TxID]*types.TxMeta

	finished bool
}

// Begin starts a transaction with a client-chosen timestamp (paper §4.1).
func (c *Client) Begin() *Txn {
	c.Stats.TxBegun.Add(1)
	t := &Txn{
		c:        c,
		ts:       types.Timestamp{Time: c.cfg.Clock.NowMicros(), ClientID: uint64(c.cfg.ID)},
		readKeys: make(map[string]bool),
		readVals: make(map[string][]byte),
		writes:   make(map[string][]byte),
		deps:     make(map[types.TxID]types.Dependency),
		depMetas: make(map[types.TxID]*types.TxMeta),
	}
	if c.timed {
		t.begun = time.Now()
	}
	// One sampling decision per transaction; the anchor is taken even when
	// unsampled so a mid-flight Force still yields a rooted trace.
	if c.tracer != nil {
		c.curTC, c.curRoot = c.tracer.Begin()
		c.curBegun = c.tracer.Now()
		c.forced = 0
	}
	return t
}

// Timestamp returns the transaction's MVTSO timestamp.
func (t *Txn) Timestamp() types.Timestamp { return t.ts }

// Write buffers a write (paper §4.1 Write); it becomes visible to others
// only once the transaction prepares.
func (t *Txn) Write(key string, value []byte) {
	if _, seen := t.writes[key]; !seen {
		t.writeOrder = append(t.writeOrder, key)
	}
	t.writes[key] = value
}

// readCandidate is one validated (version, value) option.
type readCandidate struct {
	version  types.Timestamp
	value    []byte
	prepared bool
	writer   *types.TxMeta
}

// Read returns the value of key visible at the transaction's timestamp
// (paper §4.1 Read): it broadcasts to ReadWait+f replicas, waits for
// ReadWait replies, validates them (commit certificates for committed
// versions, f+1 agreement for prepared or genesis versions), and picks the
// highest-timestamped valid version. Reading a prepared version records a
// dependency on its writer.
func (t *Txn) Read(key string) ([]byte, error) {
	// Read-your-own-writes from the local buffer.
	if v, ok := t.writes[key]; ok {
		return v, nil
	}
	// Repeatable reads: once a version is chosen for a key it is fixed in
	// the read set, so repeat reads must serve the cached value. Re-asking
	// replicas could return a version newer than the recorded one,
	// diverging what the application saw from what ST1 validates.
	if t.readKeys[key] {
		return t.readVals[key], nil
	}
	c := t.c
	if c.timed {
		defer c.hRead.Since(time.Now())
	}
	if rdStart := c.tracer.Start(c.curTC); rdStart != 0 {
		defer func() { c.tracer.End(c.curTC, c.traceNode, "client.read", c.curRoot, rdStart) }()
	}
	shard := c.cfg.ShardOf(key)
	replicas := c.replicasOf(shard)
	fanout := c.cfg.ReadWait + c.cfg.F
	if fanout > len(replicas) {
		fanout = len(replicas)
	}

	attempt := 0
	for {
		reqID, ch := c.newRequest(len(replicas))
		req := &types.ReadRequest{ReqID: reqID, ClientID: uint64(c.cfg.ID), Key: key, Ts: t.ts, TC: c.curTC}
		n := fanout
		if attempt > 0 {
			n = len(replicas) // retry against the full shard
		}
		// Spread load: start at a rotating offset so replicas share the
		// f+1-read traffic. One SendAll = one body encode on the wire.
		off := int(reqID) % len(replicas)
		tos := make([]transport.Addr, n)
		for i := range tos {
			tos[i] = replicas[(off+i)%len(replicas)]
		}
		c.cfg.Net.SendAll(c.addr, tos, req)
		rd := &readPhase{t: t, key: key, shard: shard, need: c.cfg.ReadWait, valid: c.qc.ReadValidity(),
			seen: make(map[int32]bool), genesis: make(map[string]int), prepared: make(map[types.Timestamp]int)}
		if rd.need == 1 {
			rd.valid = 1 // Fig. 5b "one read": no cross-validation
		}
		err := c.collect(ch, rd, phaseRead, nil, nil)
		c.endRequest(reqID)
		if err == nil {
			return t.chooseRead(key, rd.cands), nil
		}
		attempt++
		if attempt > 3 {
			return nil, ErrTimeout
		}
		c.Stats.ReadRetries.Add(1)
		// Jittered backoff before the retry, floored at any RetryAfter an
		// overloaded replica handed us — never a tight resend loop.
		time.Sleep(c.retryDelay(attempt-1, c.takeRetryAfter()))
	}
}

// readPhase accumulates one read attempt's replies until ReadWait valid
// replies arrived and a valid version exists. Only replies from the shard
// the request targeted count, even when correctly signed.
type readPhase struct {
	t     *Txn
	key   string
	shard int32
	need  int // replies to wait for (ReadWait)
	// valid is how many replicas must agree on a prepared or genesis
	// version: f+1, or 1 when need is 1.
	valid    int
	seen     map[int32]bool
	genesis  map[string]int          // genesis value -> votes
	prepared map[types.Timestamp]int // prepared version -> votes
	cands    []readCandidate
}

func (p *readPhase) add(m any) progress {
	c, ts := p.t.c, p.t.ts
	rr, ok := m.(*types.ReadReply)
	// A same-index replica of a different shard signs its replies with its
	// own (valid) key, so signature verification alone does not bind the
	// reply to the shard we asked: check the shard id explicitly or
	// cross-shard replies would count toward this shard's read quorum.
	if !ok || rr.Key != p.key || rr.ShardID != p.shard || p.seen[rr.ReplicaID] {
		return collecting
	}
	sig := rr.Sig
	if sig.SignerID != c.cfg.SignerOf(rr.ShardID, rr.ReplicaID) || !c.sv.Verify(rr.Payload(), &sig) {
		return collecting
	}
	p.seen[rr.ReplicaID] = true
	switch cr := rr.Committed; {
	case cr == nil && rr.Prepared == nil:
		// Key absent at this replica: a vote for the empty genesis state
		// (reads of never-written keys are legal and return nil).
		p.voteGenesis(nil)
	case cr == nil:
	case cr.WriterMeta == nil: // genesis version
		p.voteGenesis(cr.Value)
	case cr.Cert != nil && cr.Version().Less(ts) && (p.need == 1 || p.t.validCommittedRead(p.key, cr)):
		p.cands = append(p.cands, readCandidate{version: cr.Version(), value: cr.Value, writer: cr.WriterMeta})
	}
	if pr := rr.Prepared; pr != nil && pr.WriterMeta != nil && pr.Version().Less(ts) {
		v := pr.Version()
		p.prepared[v]++
		if p.prepared[v] == p.valid {
			p.cands = append(p.cands, readCandidate{version: v, value: pr.Value, prepared: true, writer: pr.WriterMeta})
		}
	}
	if len(p.seen) >= p.need && len(p.cands) > 0 {
		return finished
	}
	return collecting
}

func (p *readPhase) voteGenesis(value []byte) {
	p.genesis[string(value)]++
	if p.genesis[string(value)] == p.valid {
		p.cands = append(p.cands, readCandidate{value: value})
	}
}

// expire settles for any valid version seen, even short of ReadWait.
func (p *readPhase) expire() error {
	if len(p.cands) > 0 {
		return nil
	}
	return ErrTimeout
}

// validCommittedRead verifies a committed version's certificate and its
// binding to (key, value): H(meta) must equal the certificate's tx id and
// the write must appear in the writer's write set.
func (t *Txn) validCommittedRead(key string, cr *types.CommittedRead) bool {
	meta := cr.WriterMeta
	found := false
	for _, w := range meta.WriteSet {
		if w.Key == key && string(w.Value) == string(cr.Value) {
			found = true
			break
		}
	}
	if !found {
		return false
	}
	return t.c.qv.VerifyDecisionCert(cr.Cert, meta) == nil
}

// chooseRead picks the highest-timestamped valid candidate, records the
// read entry and (for prepared versions) the dependency.
func (t *Txn) chooseRead(key string, cands []readCandidate) []byte {
	best := cands[0]
	for _, cd := range cands[1:] {
		if best.version.Less(cd.version) {
			best = cd
		}
	}
	if !t.readKeys[key] {
		t.reads = append(t.reads, types.ReadEntry{Key: key, Version: best.version})
		t.readKeys[key] = true
		t.readVals[key] = best.value
	}
	if best.prepared && best.writer != nil {
		id := best.writer.ID()
		if _, dup := t.deps[id]; !dup {
			t.deps[id] = types.Dependency{TxID: id, Version: best.version}
			t.depMetas[id] = best.writer
			t.c.Stats.DepsAcquired.Add(1)
		}
	}
	return best.value
}

// Abort abandons the transaction, releasing read timestamps (paper §4.1
// Abort). Writes were never visible.
func (t *Txn) Abort() {
	if t.finished {
		return
	}
	t.finished = true
	t.end("abort")
	if len(t.reads) == 0 {
		return
	}
	byShard := make(map[int32][]string)
	for _, r := range t.reads {
		s := t.c.cfg.ShardOf(r.Key)
		byShard[s] = append(byShard[s], r.Key)
	}
	for s, keys := range byShard {
		t.c.broadcastShard(s, &types.AbortRead{ClientID: uint64(t.c.cfg.ID), Ts: t.ts, Keys: keys})
	}
}

// MetaSnapshot returns the transaction's metadata as it would be (or was)
// submitted in ST1. Used by the verification harness to rebuild committed
// histories; safe to call after Commit.
func (t *Txn) MetaSnapshot() *types.TxMeta { return t.buildMeta() }

// buildMeta assembles the signed transaction metadata.
func (t *Txn) buildMeta() *types.TxMeta {
	meta := &types.TxMeta{Timestamp: t.ts}
	meta.ReadSet = append(meta.ReadSet, t.reads...)
	for _, k := range t.writeOrder {
		meta.WriteSet = append(meta.WriteSet, types.WriteEntry{Key: k, Value: t.writes[k]})
	}
	for _, d := range t.deps {
		meta.Deps = append(meta.Deps, d)
	}
	sort.Slice(meta.Deps, func(i, j int) bool {
		return string(meta.Deps[i].TxID[:]) < string(meta.Deps[j].TxID[:])
	})
	shardSet := make(map[int32]bool)
	for _, r := range meta.ReadSet {
		shardSet[t.c.cfg.ShardOf(r.Key)] = true
	}
	for _, w := range meta.WriteSet {
		shardSet[t.c.cfg.ShardOf(w.Key)] = true
	}
	for s := range shardSet {
		meta.Shards = append(meta.Shards, s)
	}
	sort.Slice(meta.Shards, func(i, j int) bool { return meta.Shards[i] < meta.Shards[j] })
	return meta
}

// Commit runs the Prepare and Writeback phases (paper §4.2–4.3). It
// returns nil if the transaction committed and ErrAborted if any shard
// voted abort.
func (t *Txn) Commit() error {
	if t.finished {
		return ErrAborted
	}
	t.finished = true
	if t.c.timed {
		defer t.c.hCommit.Since(time.Now())
	}
	if len(t.reads) == 0 && len(t.writes) == 0 {
		t.end("commit")
		return nil // empty transaction commits trivially
	}
	dec, err := t.c.runPrepare(t.buildMeta(), t.depMetas)
	switch {
	case err != nil:
		t.end("failed")
		return err
	case dec == types.DecisionCommit:
		t.end("commit")
		return nil
	}
	t.end("abort")
	return ErrAborted
}

// end records the transaction's outcome: its counter, the end-to-end
// latency of a commit, and the trace root.
func (t *Txn) end(outcome string) {
	c := t.c
	if outcome == "commit" {
		c.Stats.TxCommitted.Add(1)
		c.hTxn.Since(t.begun)
	} else {
		c.Stats.TxAborted.Add(1)
	}
	c.tracer.Finish(c.curTC, c.traceNode, c.curRoot, c.curBegun, outcome)
}
