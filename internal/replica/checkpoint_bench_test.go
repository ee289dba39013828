package replica

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// checkpointBenchOut makes `go test -run TestWriteCheckpointBench` write
// the checkpoint-cost-vs-history comparison as JSON (used by `make bench`
// to record the perf trajectory in BENCH_checkpoint.json). Empty = skipped.
var checkpointBenchOut = flag.String("checkpointbench", "", "write the checkpoint lifecycle benchmark results as JSON to this file")

// ckptBenchWM is the watermark the collected scenarios advance to: above
// every seeded history timestamp, below every seeded live timestamp.
const ckptBenchWM = uint64(1) << 30

// seedCheckpointHistory drives n finalized transactions over a fixed
// 512-key space plus `live` prepared (undecided) transactions above the
// watermark, installing the same store records and txStates the protocol
// path would — without the per-transaction WAL appends, so seeding 16k
// transactions stays cheap and the measured checkpoints dominate.
func seedCheckpointHistory(r *Replica, n, live int) {
	for i := 0; i < n; i++ {
		m := &types.TxMeta{
			Timestamp: types.Timestamp{Time: uint64(i + 1), ClientID: 7},
			WriteSet:  []types.WriteEntry{{Key: fmt.Sprintf("h%03d", i%512), Value: []byte("v")}},
			Shards:    []int32{0},
		}
		id := m.ID()
		r.store.CheckAndPrepare(m, id)
		r.store.Finalize(id, m, types.DecisionCommit,
			&types.DecisionCert{TxID: id, Decision: types.DecisionCommit})
		t := r.tx(id)
		t.mu.Lock()
		t.meta = m
		t.vote = types.VoteCommit
		t.voteReady = true
		t.finalized = true
		t.mu.Unlock()
	}
	for i := 0; i < live; i++ {
		m := &types.TxMeta{
			Timestamp: types.Timestamp{Time: ckptBenchWM + uint64(i+1), ClientID: 8},
			WriteSet:  []types.WriteEntry{{Key: fmt.Sprintf("live%03d", i), Value: []byte("v")}},
			Shards:    []int32{0},
		}
		id := m.ID()
		r.store.CheckAndPrepare(m, id)
		t := r.tx(id)
		t.mu.Lock()
		t.meta = m
		t.vote = types.VoteCommit
		t.voteReady = true
		r.markLive(t)
		t.mu.Unlock()
	}
}

// checkpointBenchRow is one history size in BENCH_checkpoint.json.
type checkpointBenchRow struct {
	History    int `json:"history_txns"`
	Live       int `json:"live_txns"`
	HeldBefore int `json:"txstates_before_collect"`
	HeldAfter  int `json:"txstates_after_collect"`
	// RetainedMs is a watermark-zero checkpoint: nothing collectable, the
	// snapshot carries every version and finalized record — the pre-PR
	// steady state, growing with history.
	RetainedMs float64 `json:"checkpoint_retained_ms"`
	// CollectMs is the first watermark-advanced checkpoint: the one-time
	// O(history) pass that GCs the store and collects finished txStates.
	CollectMs float64 `json:"first_collect_ms"`
	// SteadyMs is a watermark-advanced checkpoint after collection: the
	// recurring cost, which must stay flat as history grows.
	SteadyMs float64 `json:"checkpoint_steady_ms"`
}

// checkpointKeyRow is one store size on the key-count ladder: the steady
// durable checkpoint over keys committed keys, each with its own writer
// record, so the snapshot grows linearly with the key count.
type checkpointKeyRow struct {
	Keys     int     `json:"keys"`
	SteadyMs float64 `json:"checkpoint_steady_ms"`
	// BytesWritten is the snapshot payload of one checkpoint
	// (basil_replica_checkpoint_bytes_total per checkpoint).
	BytesWritten uint64 `json:"bytes_written"`
	// BytesAllocated is the fewest bytes one checkpoint allocated (the
	// process's runtime TotalAlloc delta): streaming keeps it flat while
	// bytes_written grows with the store.
	BytesAllocated uint64 `json:"bytes_allocated"`
}

// measureKeyLadder runs the key-count ladder: for each size, one
// settling checkpoint, then three steady ones, keeping the fastest time
// and the smallest allocation.
func measureKeyLadder(t *testing.T, sizes []int) []checkpointKeyRow {
	wm := types.Timestamp{Time: ckptBenchWM}
	var rows []checkpointKeyRow
	for _, keys := range sizes {
		net := transport.NewLocal()
		r := New(durableConfig(net, t.TempDir()))
		seedCommittedKeys(r, keys)
		if err := r.Checkpoint(wm); err != nil {
			t.Fatalf("%d keys: settling checkpoint: %v", keys, err)
		}
		written := counterOf(r.Metrics().Snapshot(), "basil_replica_checkpoint_bytes_total")
		alloc, best := steadyCheckpoints(t, r, wm)
		written = counterOf(r.Metrics().Snapshot(), "basil_replica_checkpoint_bytes_total") - written
		rows = append(rows, checkpointKeyRow{
			Keys:           keys,
			SteadyMs:       float64(best.Nanoseconds()) / 1e6,
			BytesWritten:   written / 3,
			BytesAllocated: alloc,
		})
		r.Close()
		net.Close()
	}
	return rows
}

// TestWriteCheckpointBench measures the full durable checkpoint (store
// GC, snapshot + txState capture into the WAL, watermark collection) on
// replicas that have seen 1000/4000/16000 transactions over a fixed key
// space with a fixed 64-transaction live set, and writes the comparison
// as JSON. The acceptance shape: checkpoint_steady_ms flat across
// history sizes (capture walks the live-set index, the GC'd store stays
// O(keys)), while checkpoint_retained_ms grows with history. A second
// ladder grows the store itself (2k/8k/32k committed keys) and records
// the steady checkpoint's time, bytes written and bytes allocated: time
// and bytes written grow with the store, bytes allocated must not (the
// snapshot is streamed). Skipped unless -checkpointbench names an
// output file.
func TestWriteCheckpointBench(t *testing.T) {
	if *checkpointBenchOut == "" {
		t.Skip("no -checkpointbench output file given")
	}
	const liveSet = 64
	wm := types.Timestamp{Time: ckptBenchWM}

	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	var rows []checkpointBenchRow
	for _, history := range []int{1000, 4000, 16000} {
		net := transport.NewLocal()
		r := New(durableConfig(net, t.TempDir()))
		seedCheckpointHistory(r, history, liveSet)

		row := checkpointBenchRow{History: history, Live: liveSet, HeldBefore: r.TxStateCount()}
		t0 := time.Now()
		if err := r.Checkpoint(types.Timestamp{}); err != nil {
			t.Fatalf("history %d: retained checkpoint: %v", history, err)
		}
		row.RetainedMs = ms(time.Since(t0))

		t0 = time.Now()
		if err := r.Checkpoint(wm); err != nil {
			t.Fatalf("history %d: collecting checkpoint: %v", history, err)
		}
		row.CollectMs = ms(time.Since(t0))
		row.HeldAfter = r.TxStateCount()

		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			t0 = time.Now()
			if err := r.Checkpoint(wm); err != nil {
				t.Fatalf("history %d: steady checkpoint: %v", history, err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		row.SteadyMs = ms(best)
		rows = append(rows, row)

		r.Close()
		net.Close()
	}

	ladder := measureKeyLadder(t, []int{2_000, 8_000, 32_000})

	first, last := rows[0], rows[len(rows)-1]
	out := struct {
		Benchmark string               `json:"benchmark"`
		Host      map[string]any       `json:"host"`
		Workload  string               `json:"workload"`
		Results   []checkpointBenchRow `json:"results"`
		// RetainedGrowth is the watermark-zero checkpoint cost at the
		// largest history relative to the smallest — the pre-lifecycle
		// trajectory (grows with transactions seen).
		RetainedGrowth float64 `json:"retained_growth"`
		// SteadyGrowth is the same ratio for watermark-advanced
		// checkpoints — the lifecycle claim is that this stays near 1
		// over a 16x history spread.
		SteadyGrowth float64 `json:"steady_growth"`
		// KeyLadder is the store-size ladder; AllocGrowth is its bytes
		// allocated at the largest store relative to the smallest — the
		// streaming claim is that this stays near 1 over a 16x key spread
		// while bytes_written grows ~16x.
		LadderWorkload string             `json:"key_ladder_workload"`
		KeyLadder      []checkpointKeyRow `json:"key_ladder"`
		AllocGrowth    float64            `json:"key_ladder_alloc_growth"`
	}{
		Benchmark: "TestWriteCheckpointBench",
		Host: map[string]any{
			"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
			"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		},
		Workload:       "finalized history over 512 keys + 64 live prepared txns, durable replica, full checkpoint (GC + WAL snapshot + collection)",
		Results:        rows,
		RetainedGrowth: last.RetainedMs / first.RetainedMs,
		SteadyGrowth:   last.SteadyMs / first.SteadyMs,
		LadderWorkload: "N keys each written by its own committed, certified txn (64 B values), durable replica, steady checkpoint after one settling pass",
		KeyLadder:      ladder,
		AllocGrowth:    float64(ladder[len(ladder)-1].BytesAllocated) / float64(ladder[0].BytesAllocated),
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*checkpointBenchOut, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", *checkpointBenchOut, err)
	}
	for _, row := range rows {
		t.Logf("history %5d: retained %.2fms, collect %.2fms, steady %.3fms, held %d -> %d",
			row.History, row.RetainedMs, row.CollectMs, row.SteadyMs, row.HeldBefore, row.HeldAfter)
	}
	t.Logf("retained growth %.2fx vs steady growth %.2fx over a 16x history spread",
		out.RetainedGrowth, out.SteadyGrowth)
	for _, row := range ladder {
		t.Logf("keys %6d: steady %.2fms, %d bytes written, %d bytes allocated",
			row.Keys, row.SteadyMs, row.BytesWritten, row.BytesAllocated)
	}
	t.Logf("bytes allocated growth %.2fx over a 16x key spread", out.AllocGrowth)
}
