package replica

import (
	"testing"

	"repro/internal/client"
	"repro/internal/cryptoutil"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestSigsVerifiedCountsPerformedChecks pins basil_replica_sigs_verified_total:
// a committed transaction makes every replica verify the writeback
// certificate's votes, and delivering those votes again is answered from
// the verified-signature cache without another ed25519 check.
func TestSigsVerifiedCountsPerformedChecks(t *testing.T) {
	const f = 1
	n := 5*f + 1
	net := transport.NewLocal()
	defer net.Close()
	reg := cryptoutil.NewRegistry(cryptoutil.SchemeEd25519, n, 1)
	signerOf := quorum.SignerOf(func(s, i int32) int32 { return i })
	var reps []*Replica
	for i := 0; i < n; i++ {
		r := New(Config{
			Shard: 0, Index: int32(i), F: f, DeltaMicros: 60_000_000,
			Registry: reg, SignerID: int32(i), SignerOf: signerOf, Net: net,
		})
		defer r.Close()
		reps = append(reps, r)
	}
	c := client.New(client.Config{
		ID: 1, F: f, NumShards: 1, ShardOf: func(string) int32 { return 0 },
		Registry: reg, SignerOf: signerOf, Net: net,
	})
	tx := c.Begin()
	tx.Write("k", []byte("v"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	id := tx.MetaSnapshot().ID()
	r := reps[0]
	var cert *types.DecisionCert
	waitFor(t, func() bool {
		rec, ok := r.Store().Tx(id)
		cert = rec.Cert
		return ok && cert != nil
	})
	checks := r.Stats.SigsVerified.Load()
	if checks == 0 {
		t.Fatal("SigsVerified is 0 after a committed transaction")
	}

	// The same vote again: a cache hit, not an ed25519 check.
	vote := cert.Shards[0].ST1Rs[0]
	hits := r.sv.DirectCacheHits()
	if err := r.qv.VerifyST1Reply(&vote, id); err != nil {
		t.Fatalf("re-verify committed vote: %v", err)
	}
	if r.sv.DirectCacheHits() != hits+1 {
		t.Fatal("re-delivered vote missed the verified-signature cache")
	}
	// And the whole certificate delivered again in a writeback.
	r.Deliver(c.Addr(), &types.WritebackRequest{
		ClientID: 1, TxID: id, Decision: cert.Decision, Cert: cert, Meta: tx.MetaSnapshot(),
	})
	r.Close() // drains the redelivered writeback's handler
	if got := r.Stats.SigsVerified.Load(); got != checks {
		t.Fatalf("SigsVerified grew %d -> %d on re-delivered votes", checks, got)
	}
}
