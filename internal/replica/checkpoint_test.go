package replica

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/types"
)

// seedCommittedKeys installs n keys in r's store, each written by its own
// committed transaction (with a certificate), so the snapshot carries n
// versions and n live-writer transaction records.
func seedCommittedKeys(r *Replica, n int) {
	val := make([]byte, 64)
	for i := 0; i < n; i++ {
		m := &types.TxMeta{
			Timestamp: types.Timestamp{Time: uint64(i + 1), ClientID: 7},
			WriteSet:  []types.WriteEntry{{Key: fmt.Sprintf("key%06d", i), Value: val}},
			Shards:    []int32{0},
		}
		id := m.ID()
		r.store.CheckAndPrepare(m, id)
		r.store.Finalize(id, m, types.DecisionCommit,
			&types.DecisionCert{TxID: id, Decision: types.DecisionCommit})
	}
}

// steadyCheckpoints runs three durable checkpoints at wm and returns the
// fewest bytes one of them allocated (the process-wide TotalAlloc delta)
// and the shortest one's duration.
func steadyCheckpoints(t *testing.T, r *Replica, wm types.Timestamp) (alloc uint64, best time.Duration) {
	t.Helper()
	alloc, best = ^uint64(0), time.Duration(1<<62)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		t0 := time.Now()
		if err := r.Checkpoint(wm); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		best = min(best, time.Since(t0))
		runtime.ReadMemStats(&ms)
		alloc = min(alloc, ms.TotalAlloc-before)
	}
	return alloc, best
}

// TestCheckpointAllocBoundedByChunk: a durable checkpoint streams the
// snapshot through fixed-size buffers, so the bytes it allocates do not
// grow with the store — 16x more keys may cost at most 1.5x, and never
// reach 1 MiB, although the 32k-key snapshot itself is several MiB.
func TestCheckpointAllocBoundedByChunk(t *testing.T) {
	wm := types.Timestamp{Time: 1 << 30}
	alloc := map[int]uint64{}
	for _, keys := range []int{2_000, 32_000} {
		net := transport.NewLocal()
		r := New(durableConfig(net, t.TempDir()))
		seedCommittedKeys(r, keys)
		if err := r.Checkpoint(wm); err != nil { // first pass: GC settles the store
			t.Fatalf("%d keys: checkpoint: %v", keys, err)
		}
		alloc[keys], _ = steadyCheckpoints(t, r, wm)
		t.Logf("%6d keys: %7d bytes allocated per checkpoint, %d snapshot bytes written by 4 checkpoints",
			keys, alloc[keys], counterOf(r.Metrics().Snapshot(), "basil_replica_checkpoint_bytes_total"))
		r.Close()
		net.Close()
	}
	small, large := alloc[2_000], alloc[32_000]
	if large >= 1<<20 {
		t.Fatalf("a 32k-key checkpoint allocated %d bytes, want < 1 MiB", large)
	}
	if float64(large) > 1.5*float64(small) {
		t.Fatalf("checkpoint allocation grows with the store: %d bytes at 2k keys, %d at 32k (> 1.5x)", small, large)
	}
}

// TestCheckpointFailureMutesAndKeepsPrevious: when the periodic
// checkpoint cannot be written, the replica mutes itself (fail-stop),
// leaves no temp file behind, and a restart recovers every promise from
// the previous checkpoint plus the log suffix after it.
func TestCheckpointFailureMutesAndKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewLocal()
	defer net.Close()
	cfg := durableConfig(net, dir)
	r := New(cfg)
	client, st1, _ := captureClient(net, 9)

	mOld := st1For("old", 50)
	r.Deliver(client, mOld)
	awaitReply(t, st1, mOld.Meta.ID())
	if err := r.Checkpoint(types.Timestamp{Time: 30}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	mNew := st1For("new", 60)
	r.Deliver(client, mNew)
	awaitReply(t, st1, mNew.Meta.ID())
	r.Close()

	// The next checkpoint rotates to segment 3 and writes ckpt-3 under
	// its temp name; a directory squatting on that name makes the write
	// fail.
	if err := os.Mkdir(filepath.Join(dir, "ckpt-00000003.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointEvery = 10 * time.Millisecond
	r2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	waitFor(t, func() bool { return r2.Health().State == "muted" })
	r2.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("failed checkpoint left %s behind", e.Name())
		}
	}

	cfg.CheckpointEvery = 0
	r3, err := Restore(cfg, dir)
	if err != nil {
		t.Fatalf("Restore after failed checkpoint: %v", err)
	}
	defer r3.Close()
	for i, m := range []*types.ST1Request{mOld, mNew} {
		r3.Deliver(client, &types.ST1Request{ReqID: uint64(10 + i), ClientID: 9, Meta: m.Meta})
		if rep := awaitReply(t, st1, m.Meta.ID()); rep.Vote != types.VoteCommit {
			t.Fatalf("vote %d not re-served after the failed checkpoint: %v", i, rep.Vote)
		}
	}
}

// TestCheckpointMetrics: a durable checkpoint counts the payload bytes
// it published — the checkpoint file minus its 17-byte header — and the
// store records one snapshot lock hold.
func TestCheckpointMetrics(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewLocal()
	defer net.Close()
	r := New(durableConfig(net, dir))
	defer r.Close()
	seedCommittedKeys(r, 100)
	if err := r.Checkpoint(types.Timestamp{Time: 1 << 30}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	snap := r.Metrics().Snapshot()
	fi, err := os.Stat(filepath.Join(dir, "ckpt-00000002.ck"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := counterOf(snap, "basil_replica_checkpoint_bytes_total"), uint64(fi.Size()-17); got != want {
		t.Fatalf("checkpoint bytes = %d, want %d", got, want)
	}
	holds := uint64(0)
	for _, h := range snap.Hists {
		if h.Name == "basil_store_snapshot_hold_seconds" {
			holds += h.Hist.Count
		}
	}
	if holds != 1 {
		t.Fatalf("snapshot hold count = %d, want 1", holds)
	}
}

// counterOf sums the counter name over its label sets in s.
func counterOf(s metrics.Snapshot, name string) uint64 {
	var v uint64
	for _, c := range s.Counters {
		if c.Name == name {
			v += c.Value
		}
	}
	return v
}
