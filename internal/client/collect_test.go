package client

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/transport"
	"repro/internal/types"
)

// fakeSignerOf gives every (shard, replica) its own registry id, so a
// reply claiming another shard carries a verifiable but foreign identity.
func fakeSignerOf(shard, replica int32) int32 { return shard*harnessN + replica }

// newFakeShard builds a client over harnessN scripted shard-0 replicas
// with unchecked signatures (SchemeNone). reply runs on each replica's
// dispatch goroutine and returns the message to answer with (nil: none).
func newFakeShard(t *testing.T, reply func(replica int32, msg any) any) *Client {
	t.Helper()
	net := transport.NewLocal()
	t.Cleanup(net.Close)
	for i := int32(0); i < harnessN; i++ {
		i, ra := i, transport.ReplicaAddr(0, i)
		net.Register(ra, transport.HandlerFunc(func(from transport.Addr, msg any) {
			if out := reply(i, msg); out != nil {
				net.Send(ra, from, out)
			}
		}))
	}
	return New(Config{
		ID: 1, F: 1, NumShards: 1,
		ShardOf:      func(string) int32 { return 0 },
		Registry:     cryptoutil.NewRegistry(cryptoutil.SchemeNone, 2*harnessN, 1),
		SignerOf:     fakeSignerOf,
		Net:          net,
		PhaseTimeout: 20 * time.Millisecond,
		RetryTimeout: 500 * time.Millisecond,
	})
}

// testMeta is a single-shard write transaction; its logging shard is 0.
func testMeta() *types.TxMeta {
	return &types.TxMeta{
		Timestamp: types.Timestamp{Time: 5, ClientID: 1},
		WriteSet:  []types.WriteEntry{{Key: "k", Value: []byte("v")}},
		Shards:    []int32{0},
	}
}

// st2r is a logged-decision acknowledgement from (shard, replica).
func st2r(id types.TxID, shard, replica int32, dec types.Decision, view uint64) *types.ST2Reply {
	return &types.ST2Reply{
		TxID: id, ShardID: shard, ReplicaID: replica, Decision: dec, ViewDecision: view,
		Sig: types.Signature{SignerID: fakeSignerOf(shard, replica)},
	}
}

// committedCert is a valid logged commit certificate for meta.
func committedCert(t *testing.T, c *Client, meta *types.TxMeta) *types.DecisionCert {
	t.Helper()
	q := c.newST2Quorum(meta.ID(), 0, types.DecisionNone, make(map[int32]types.ST2Reply))
	for i := int32(0); i < int32(c.qc.LogQuorum()); i++ {
		q.add(st2r(meta.ID(), 0, i, types.DecisionCommit, 0))
	}
	if q.cert == nil {
		t.Fatal("LogQuorum matching ST2Rs formed no certificate")
	}
	return q.cert
}

// TestST2Quorum drives the logged-decision quorum shared by stage 2,
// recovery and fallback one reply at a time.
func TestST2Quorum(t *testing.T) {
	c := newFakeShard(t, func(int32, any) any { return nil })
	meta := testMeta()
	id := meta.ID()
	commit, abort := types.DecisionCommit, types.DecisionAbort
	// replies from logging shard 0 unless shard says otherwise
	from := func(shard int32, dec types.Decision, view uint64, replicas ...int32) []*types.ST2Reply {
		var out []*types.ST2Reply
		for _, r := range replicas {
			out = append(out, st2r(id, shard, r, dec, view))
		}
		return out
	}
	cases := []struct {
		name    string
		want    types.Decision
		replies []*types.ST2Reply
		cert    bool  // a certificate formed
		expire  error // what the phase timer would return
	}{
		{"n-f matching certify", commit, from(0, commit, 0, 0, 1, 2, 3, 4), true, nil},
		{"other shard rejected", commit, from(1, commit, 0, 0, 1, 2, 3, 4, 5), false, ErrTimeout},
		{"duplicate replica counts once", commit, from(0, commit, 0, 0, 1, 1, 2, 3), false, ErrTimeout},
		{"views do not combine", types.DecisionNone,
			append(from(0, commit, 0, 0, 1, 2), from(0, commit, 1, 3, 4)...), false, errPending},
		{"stage 2 sees another decision", commit,
			append(from(0, commit, 0, 0, 1, 2, 3), from(0, abort, 0, 4)...), false, errPending},
		{"abort certifies for any-decision quorum", types.DecisionNone, from(0, abort, 2, 1, 2, 3, 4, 5), true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := c.newST2Quorum(id, 0, tc.want, make(map[int32]types.ST2Reply))
			done := false
			for _, r := range tc.replies {
				done = q.add(r) == finished || done
			}
			if done != tc.cert || (q.cert != nil) != tc.cert {
				t.Fatalf("finished=%v cert=%v, want certified=%v", done, q.cert != nil, tc.cert)
			}
			if tc.cert {
				if err := c.qv.VerifyDecisionCert(q.cert, meta); err != nil {
					t.Fatalf("built certificate does not verify: %v", err)
				}
				return
			}
			if err := q.expire(); err != tc.expire {
				t.Fatalf("expire = %v, want %v", err, tc.expire)
			}
		})
	}
}

// TestStage2MismatchReturnsPending: a logging shard that logged the other
// decision sends logDecision to recovery, and is not a give-up.
func TestStage2MismatchReturnsPending(t *testing.T) {
	c := newFakeShard(t, func(i int32, msg any) any {
		if m, ok := msg.(*types.ST2Request); ok {
			r := st2r(m.TxID, 0, i, types.DecisionAbort, 0)
			r.ReqID = m.ReqID
			return r
		}
		return nil
	})
	meta := testMeta()
	res := prepareResult{decision: types.DecisionCommit, tallies: newTallies(meta.Shards)}
	if _, err := c.logDecision(meta, meta.ID(), res); !errors.Is(err, errPending) {
		t.Fatalf("logDecision against an abort-logged shard: %v, want errPending", err)
	}
	if n := c.timeouts[phaseST2].Load(); n != 0 {
		t.Fatalf("mismatch counted as %d st2 give-ups", n)
	}
}

// finishAgainst runs FinishTransaction(meta) against a fake shard and
// reports the outcome plus whether a writeback reached the shard.
func finishAgainst(t *testing.T, meta *types.TxMeta, reply func(replica int32, msg any) any) (*Client, types.Decision, *types.DecisionCert, bool) {
	t.Helper()
	var wrote atomic.Bool
	c := newFakeShard(t, func(i int32, msg any) any {
		if _, ok := msg.(*types.WritebackRequest); ok {
			wrote.Store(true)
			return nil
		}
		return reply(i, msg)
	})
	dec, cert, err := c.FinishTransaction(meta)
	if err != nil {
		t.Fatalf("FinishTransaction: %v", err)
	}
	// The writeback is asynchronous: give it a second to land.
	for deadline := time.Now().Add(time.Second); !wrote.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return c, dec, cert, wrote.Load()
}

// TestRPCertShortCircuitsRecoveryAndFallback: a replica that already holds
// the certificate ends recovery at once, whether it surfaces on the RP
// broadcast or on a fallback round's InvokeFB.
func TestRPCertShortCircuitsRecoveryAndFallback(t *testing.T) {
	meta := testMeta()
	id := meta.ID()
	cert := committedCert(t, newFakeShard(t, func(int32, any) any { return nil }), meta)
	rpCert := func(reqID uint64, i int32) *types.ST1Reply {
		return &types.ST1Reply{ReqID: reqID, TxID: id, ShardID: 0, ReplicaID: i,
			RPKind: types.RPCert, Cert: cert, CertMeta: meta}
	}
	for _, tc := range []struct {
		name   string
		rounds uint64 // fallback rounds expected
		reply  func(i int32, msg any) any
	}{
		{"recovery", 0, func(i int32, msg any) any {
			if m, ok := msg.(*types.ST1Request); ok && m.Recovery {
				return rpCert(m.ReqID, i)
			}
			return nil
		}},
		{"fallback", 1, func(i int32, msg any) any {
			if m, ok := msg.(*types.InvokeFB); ok {
				return rpCert(m.ReqID, i)
			}
			return nil // RP goes unanswered: recovery expires into the fallback
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, dec, got, wrote := finishAgainst(t, meta, tc.reply)
			if dec != types.DecisionCommit || got != cert {
				t.Fatalf("finished with %v / %p, want the replica's commit certificate", dec, got)
			}
			if n := c.Stats.FallbackRounds.Load(); n != tc.rounds {
				t.Fatalf("%d fallback rounds, want %d", n, tc.rounds)
			}
			if !wrote {
				t.Fatal("no writeback of the surfaced certificate")
			}
		})
	}
}

// TestRPDecisionQuorumFinishesRecovery: n-f matching logged decisions on
// the RP replies certify directly, with no fallback round.
func TestRPDecisionQuorumFinishesRecovery(t *testing.T) {
	meta := testMeta()
	c, dec, cert, wrote := finishAgainst(t, meta, func(i int32, msg any) any {
		if m, ok := msg.(*types.ST1Request); ok && m.Recovery && i < 5 {
			return &types.ST1Reply{ReqID: m.ReqID, TxID: meta.ID(), ShardID: 0, ReplicaID: i,
				RPKind: types.RPDecision, Decision: types.DecisionAbort,
				ST2R: st2r(meta.ID(), 0, i, types.DecisionAbort, 0)}
		}
		return nil
	})
	if dec != types.DecisionAbort || cert.Shards[0].Kind != types.CertST2Logged || len(cert.Shards[0].ST2Rs) != 5 {
		t.Fatalf("finished with %v, cert %+v; want a 5-reply logged abort", dec, cert.Shards)
	}
	if n := c.Stats.FallbackRounds.Load(); n != 0 {
		t.Fatalf("%d fallback rounds, want none", n)
	}
	if !wrote {
		t.Fatal("no writeback of the logged abort")
	}
}

// TestTimeoutsCountedByPhase: a shard that never answers is a prepare
// give-up, and only that.
func TestTimeoutsCountedByPhase(t *testing.T) {
	c := newFakeShard(t, func(int32, any) any { return nil })
	tx := c.Begin()
	tx.Write("k", []byte("v"))
	if err := tx.Commit(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("commit against a silent shard: %v, want ErrTimeout", err)
	}
	seen := 0
	for _, cv := range c.Metrics().Snapshot().Counters {
		if cv.Name != "basil_client_timeouts_total" {
			continue
		}
		seen++
		want := uint64(0)
		if strings.Contains(cv.Labels, `phase="prepare"`) {
			want = 1
		}
		if cv.Value != want {
			t.Errorf("timeouts{%s} = %d, want %d", cv.Labels, cv.Value, want)
		}
	}
	if seen != len(phaseNames) {
		t.Fatalf("%d timeout series registered, want %d", seen, len(phaseNames))
	}
}
