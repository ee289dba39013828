package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/types"
)

// TestGCRecomputesMaxRTS is the regression test for the stale-maxRTS GC
// bug: GC deleted RTS entries from e.rts but left e.maxRTS at the
// collected read's timestamp, so the coarse line-12 filter in
// CheckAndPrepare kept aborting every writer below a read timestamp that
// no longer existed. (Same class as the dropRTS fix from the PR-3
// review, on the GC path.)
func TestGCRecomputesMaxRTS(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	// An ongoing read at ts 100 raises maxRTS to 100.
	s.Read("x", ts(100, 1))
	// The read's transaction dies; much later, GC passes above it.
	if dropped := s.GC(ts(200, 0)); dropped == 0 {
		t.Fatal("GC did not collect the RTS entry")
	}
	// A writer below the collected read timestamp must now be admitted:
	// no live read exists for it to invalidate. Before the fix maxRTS
	// stayed 100 forever and this prepare aborted.
	m := meta(ts(50, 2), nil, map[string]string{"x": "v50"})
	if res := s.CheckAndPrepare(m, m.ID()); res.Outcome != CheckOK {
		t.Fatalf("writer below collected RTS aborted: %v (stale maxRTS)", res.Outcome)
	}
}

// TestGCPartialRTSKeepsMax covers the other half: when only some RTS
// entries fall below the watermark, the recomputed maxRTS must still
// dominate the survivors.
func TestGCPartialRTSKeepsMax(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	s.Read("x", ts(100, 1))
	s.Read("x", ts(300, 1))
	s.GC(ts(200, 0)) // collects the 100 read, keeps the 300 read
	// A writer below the surviving read must still be refused.
	m := meta(ts(250, 2), nil, map[string]string{"x": "v"})
	if res := s.CheckAndPrepare(m, m.ID()); res.Outcome != CheckAbort {
		t.Fatalf("writer below surviving RTS admitted: %v", res.Outcome)
	}
}

// TestGCCollectsFinalizedTxns is the regression test for the unbounded
// transaction table: GC never touched s.txns, so finalized records
// accumulated forever under sustained load. Collected records must be
// counted in the returned dropped total, and writers of still-live
// versions must be retained (Read serves their metadata and cert).
func TestGCCollectsFinalizedTxns(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	var ids []types.TxID
	for i := uint64(1); i <= 5; i++ {
		m := meta(ts(i*10, 1), nil, map[string]string{"x": fmt.Sprintf("v%d", i)})
		id := mustPrepare(t, s, m)
		s.Finalize(id, m, types.DecisionCommit, nil)
		ids = append(ids, id)
	}
	// An aborted transaction below the watermark is collectable too.
	ma := meta(ts(15, 2), nil, map[string]string{"x": "dead"})
	mustPrepare(t, s, ma)
	s.Finalize(ma.ID(), ma, types.DecisionAbort, nil)

	before := s.StatsSnapshot().Txns
	dropped := s.GC(ts(45, 0))
	after := s.StatsSnapshot().Txns
	if after >= before {
		t.Fatalf("txns table did not shrink: %d -> %d (dropped=%d)", before, after, dropped)
	}
	// v1..v3's versions are gone (v4 is the kept newest ≤ watermark), so
	// their records go; the abort goes; v4 and v5 still write live
	// versions and must stay.
	for i, id := range ids {
		_, ok := s.Tx(id)
		wantLive := i >= 3 // ids[3]=v4, ids[4]=v5
		if ok != wantLive {
			t.Fatalf("tx v%d: present=%v, want %v", i+1, ok, wantLive)
		}
	}
	if _, ok := s.Tx(ma.ID()); ok {
		t.Fatal("aborted tx below watermark survived GC")
	}
	// The retained writer still backs reads with metadata.
	r := s.Read("x", ts(100, 9))
	if r.Committed == nil || r.Committed.WriterMeta == nil {
		t.Fatal("live committed version lost its writer record")
	}
	if dropped < 4 { // ≥3 versions + ≥3 txns + abort bookkeeping
		t.Fatalf("dropped=%d suspiciously low", dropped)
	}
}

// TestSnapshotRestoreRoundTrip: a store rebuilt from its snapshot serves
// identical reads, conflict checks, and transaction lookups.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	s.ApplyGenesis("y", []byte("w0"))
	// Committed write on x.
	mc := meta(ts(10, 1), nil, map[string]string{"x": "v10"})
	mustPrepare(t, s, mc)
	s.Finalize(mc.ID(), mc, types.DecisionCommit, nil)
	// Prepared (undecided) write on y that also read x.
	mp := meta(ts(20, 2), map[string]types.Timestamp{"x": ts(10, 1)}, map[string]string{"y": "w20"})
	mustPrepare(t, s, mp)
	s.SetRTSFloor(ts(7, 0))

	snap := snapshotBytes(t, s)
	snap = append(snap, 0xAA, 0xBB) // callers append their own sections

	s2 := New()
	rest, maxTs, err := s2.Restore(snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if len(rest) != 2 || rest[0] != 0xAA {
		t.Fatalf("rest = %x", rest)
	}
	if maxTs != ts(20, 2) {
		t.Fatalf("maxTs = %v, want %v", maxTs, ts(20, 2))
	}

	// Reads match.
	r := s2.Read("x", ts(15, 3))
	if r.Committed == nil || string(r.Committed.Value) != "v10" || r.Committed.WriterMeta == nil {
		t.Fatalf("restored committed read wrong: %+v", r.Committed)
	}
	rp := s2.Read("y", ts(30, 3))
	if rp.Prepared == nil || string(rp.Prepared.Value) != "w20" {
		t.Fatalf("restored prepared read wrong: %+v", rp.Prepared)
	}
	// The prepared transaction is still prepared; the committed one
	// committed.
	if s2.TxStatusOf(mp.ID()) != StatusPrepared || s2.TxStatusOf(mc.ID()) != StatusCommitted {
		t.Fatal("restored statuses wrong")
	}
	// Reader records survived: a write invalidating mp's read of x must
	// abort, exactly as on the original store.
	mw := meta(ts(15, 4), nil, map[string]string{"x": "invalidates"})
	if res := s2.CheckAndPrepare(mw, mw.ID()); res.Outcome != CheckAbort {
		t.Fatalf("restored reader record not enforced: %v", res.Outcome)
	}
	// The RTS floor survived: writers below it abort even with no RTS.
	mf := meta(ts(5, 5), nil, map[string]string{"zz": "below-floor"})
	if res := s2.CheckAndPrepare(mf, mf.ID()); res.Outcome != CheckAbort {
		t.Fatalf("restored RTS floor not enforced: %v", res.Outcome)
	}
	// Finalizing the restored prepared transaction works as usual.
	if !s2.Finalize(mp.ID(), mp, types.DecisionCommit, nil) {
		t.Fatal("finalize after restore did not apply")
	}
	if v, _, ok := s2.LatestCommitted("y"); !ok || v != ts(20, 2) {
		t.Fatal("commit after restore lost")
	}
}

// TestSnapshotRestoreTruncated: a torn snapshot must error, not build a
// half store.
func TestSnapshotRestoreTruncated(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	m := meta(ts(10, 1), nil, map[string]string{"x": "v10"})
	mustPrepare(t, s, m)
	snap := snapshotBytes(t, s)
	for _, cut := range []int{1, len(snap) / 2, len(snap) - 1} {
		if _, _, err := New().Restore(snap[:cut]); err == nil {
			t.Fatalf("Restore accepted %d of %d bytes", cut, len(snap))
		}
	}
}

// TestRestorePrepared: direct reinstatement installs writes and reader
// records without re-running the check, and is idempotent.
func TestRestorePrepared(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	m := meta(ts(10, 1), map[string]types.Timestamp{"x": ts(0, 0)}, map[string]string{"y": "v10"})
	id := m.ID()
	if !s.RestorePrepared(m, id) {
		t.Fatal("RestorePrepared refused a fresh transaction")
	}
	if s.RestorePrepared(m, id) {
		t.Fatal("RestorePrepared not idempotent")
	}
	if s.TxStatusOf(id) != StatusPrepared {
		t.Fatal("status not prepared")
	}
	r := s.Read("y", ts(20, 2))
	if r.Prepared == nil || string(r.Prepared.Value) != "v10" {
		t.Fatal("reinstated prepared write invisible")
	}
	// The reinstated reader record guards x.
	mw := meta(ts(5, 3), nil, map[string]string{"x": "conflict"})
	if res := s.CheckAndPrepare(mw, mw.ID()); res.Outcome != CheckAbort {
		t.Fatalf("reinstated reader not enforced: %v", res.Outcome)
	}
}

// snapshotBytes captures s's snapshot into memory.
func snapshotBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

// chunkRecorder is a snapshot writer that keeps what it is given and
// the size of each write; with failAfter > 0 it fails every write once
// that many bytes have been accepted.
type chunkRecorder struct {
	buf       bytes.Buffer
	writes    []int
	failAfter int
}

var errDiskFull = errors.New("disk full")

func (c *chunkRecorder) Write(p []byte) (int, error) {
	if c.failAfter > 0 && c.buf.Len() >= c.failAfter {
		return 0, errDiskFull
	}
	c.writes = append(c.writes, len(p))
	return c.buf.Write(p)
}

// TestSnapshotStreamsInChunks: a snapshot larger than the chunk size
// reaches the writer in several chunk-sized writes (never the whole
// encoding at once), and a value larger than the chunk is written
// through without growing the scratch buffer; the stream still restores
// to the same state.
func TestSnapshotStreamsInChunks(t *testing.T) {
	s := New()
	for i := 0; i < 4000; i++ {
		s.ApplyGenesis(fmt.Sprintf("k%05d", i), bytes.Repeat([]byte{byte(i)}, 100))
	}
	big := bytes.Repeat([]byte("B"), 3*snapChunk+17)
	s.ApplyGenesis("big", big)
	mc := meta(ts(10, 1), nil, map[string]string{"k00001": "v10"})
	mustPrepare(t, s, mc)
	s.Finalize(mc.ID(), mc, types.DecisionCommit, nil)

	var rec chunkRecorder
	if err := s.Snapshot(&rec); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if len(rec.writes) < 5 {
		t.Fatalf("%d bytes arrived in %d writes; want chunked streaming", rec.buf.Len(), len(rec.writes))
	}
	for _, n := range rec.writes {
		if n > 2*snapChunk && n != len(big) {
			t.Fatalf("write of %d bytes exceeds the chunk bound (chunk %d, big value %d)", n, snapChunk, len(big))
		}
	}

	s2 := New()
	rest, _, err := s2.Restore(rec.buf.Bytes())
	if err != nil || len(rest) != 0 {
		t.Fatalf("restore: rest=%d err=%v", len(rest), err)
	}
	if _, v, ok := s2.LatestCommitted("big"); !ok || !bytes.Equal(v, big) {
		t.Fatalf("big value did not round-trip (%d bytes)", len(v))
	}
	if _, v, ok := s2.LatestCommitted("k00001"); !ok || string(v) != "v10" {
		t.Fatalf("committed write did not round-trip: %q", v)
	}
	if got, want := s2.StatsSnapshot(), s.StatsSnapshot(); got.Keys != want.Keys || got.Versions != want.Versions || got.Txns != want.Txns {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}
}

// TestSnapshotEmptyStore: an empty store snapshots to the fixed header
// (version, RTS floor, zero transactions, zero keys) and restores.
func TestSnapshotEmptyStore(t *testing.T) {
	snap := snapshotBytes(t, New())
	if want := 1 + 16 + 4 + 4; len(snap) != want {
		t.Fatalf("empty snapshot is %d bytes, want %d", len(snap), want)
	}
	s2 := New()
	rest, maxTs, err := s2.Restore(snap)
	if err != nil || len(rest) != 0 || !maxTs.IsZero() {
		t.Fatalf("restore empty: rest=%d maxTs=%v err=%v", len(rest), maxTs, err)
	}
	if st := s2.StatsSnapshot(); st.Keys != 0 || st.Txns != 0 {
		t.Fatalf("empty restore produced %+v", st)
	}
}

// TestSnapshotWriteErrorStops: the first write error ends the capture and
// is returned — Snapshot does not keep encoding under the exclusive lock
// for a writer that has already failed — and the lock is released.
func TestSnapshotWriteErrorStops(t *testing.T) {
	s := New()
	for i := 0; i < 8000; i++ {
		s.ApplyGenesis(fmt.Sprintf("k%05d", i), bytes.Repeat([]byte{1}, 64))
	}
	rec := chunkRecorder{failAfter: 1}
	if err := s.Snapshot(&rec); !errors.Is(err, errDiskFull) {
		t.Fatalf("snapshot error = %v, want %v", err, errDiskFull)
	}
	if len(rec.writes) != 1 {
		t.Fatalf("snapshot kept writing after the error: %d writes accepted", len(rec.writes))
	}
	s.ApplyGenesis("after", []byte("x")) // deadlocks if the lock leaked
}
