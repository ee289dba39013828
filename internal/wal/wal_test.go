package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// openT opens a log in dir, failing the test on error.
func openT(t *testing.T, dir string, opts Options) (*Log, *Recovered) {
	t.Helper()
	opts.Dir = dir
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func recN(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

// snapOf is a Checkpoint snapshot function that writes b.
func snapOf(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.Append(recN(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, rec2 := openT(t, dir, Options{})
	defer l2.Close()
	if len(rec2.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), n)
	}
	for i, r := range rec2.Records {
		if !bytes.Equal(r, recN(i)) {
			t.Fatalf("record %d = %q, want %q", i, r, recN(i))
		}
	}
	// Appending after recovery extends the same history.
	if err := l2.Append(recN(n)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	l2.Close()
	_, rec3 := openT(t, dir, Options{})
	if len(rec3.Records) != n+1 {
		t.Fatalf("after re-append: %d records, want %d", len(rec3.Records), n+1)
	}
}

func TestWALTruncatedTailTolerated(t *testing.T) {
	for _, cut := range []int{1, 5, 9} { // bytes chopped off the last frame
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, dir, Options{})
			for i := 0; i < 10; i++ {
				if err := l.Append(recN(i)); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()

			// Tear the tail of the (only) segment, as a crash mid-write would.
			path := filepath.Join(dir, segName(1))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
				t.Fatal(err)
			}

			l2, rec := openT(t, dir, Options{})
			if len(rec.Records) != 9 {
				t.Fatalf("recovered %d records after torn tail, want 9", len(rec.Records))
			}
			// The torn bytes are gone: appending then re-opening must yield a
			// clean history of 9 old + 1 new records.
			if err := l2.Append([]byte("fresh")); err != nil {
				t.Fatal(err)
			}
			l2.Close()
			_, rec2 := openT(t, dir, Options{})
			if len(rec2.Records) != 10 || string(rec2.Records[9]) != "fresh" {
				t.Fatalf("post-truncation history wrong: %d records", len(rec2.Records))
			}
		})
	}
}

func TestWALCorruptionMidLogRefused(t *testing.T) {
	dir := t.TempDir()
	// Two segments: tiny SegmentBytes forces rotation.
	l, _ := openT(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		if err := l.Append(recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Flip a payload byte in the FIRST segment: not a tail, so replay must
	// refuse rather than silently drop records.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+8] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted mid-log corruption")
	}
}

func TestWALCheckpointPrunesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 20; i++ {
		if err := l.Append(recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(snapOf([]byte("snapshot-at-20"))); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for i := 20; i < 25; i++ {
		if err := l.Append(recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Pre-checkpoint segments are gone.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			if data, err := os.ReadFile(filepath.Join(dir, e.Name())); err == nil && seq < 2 && len(data) > len(segMagic) {
				t.Fatalf("superseded segment %s survived with content", e.Name())
			}
		}
	}

	l2, rec := openT(t, dir, Options{})
	defer l2.Close()
	if string(rec.Snapshot) != "snapshot-at-20" {
		t.Fatalf("snapshot = %q", rec.Snapshot)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("suffix has %d records, want 5", len(rec.Records))
	}
	for i, r := range rec.Records {
		if !bytes.Equal(r, recN(20+i)) {
			t.Fatalf("suffix record %d = %q", i, r)
		}
	}
}

func TestWALCheckpointCoversConcurrentAppends(t *testing.T) {
	// Appends racing a checkpoint must never be lost: each record ends up
	// in the snapshot, in the kept suffix, or in both (idempotent replay).
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{FlushDelay: 50 * time.Microsecond})
	var wg sync.WaitGroup
	const n = 64
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%04d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	var snapped [][]byte
	if err := l.Checkpoint(func(w io.Writer) error {
		// The snapshot sees everything rotated out; emulate a state dump by
		// recording what a replayer would have applied so far.
		r, err := readAll(dir)
		if err != nil {
			t.Errorf("mid-checkpoint read: %v", err)
		}
		snapped = r
		_, err = w.Write(flatten(r))
		return err
	}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	wg.Wait()
	l.Close()

	_, rec := mustRecover(t, dir)
	seen := make(map[string]bool)
	for _, r := range snapped {
		seen[string(r)] = true
	}
	for _, r := range rec.Records {
		seen[string(r)] = true
	}
	if len(seen) != 4*n {
		t.Fatalf("checkpoint+suffix cover %d records, want %d", len(seen), 4*n)
	}
}

// readAll returns every record currently replayable from dir's segments
// (ignoring checkpoints) — test helper emulating a state dump.
func readAll(dir string) ([][]byte, error) {
	rec, _, _, _, err := recoverState(dir)
	if err != nil {
		return nil, err
	}
	return rec.Records, nil
}

func flatten(rs [][]byte) []byte {
	var b []byte
	for _, r := range rs {
		b = binary.BigEndian.AppendUint32(b, uint32(len(r)))
		b = append(b, r...)
	}
	return b
}

func mustRecover(t *testing.T, dir string) (*Log, *Recovered) {
	t.Helper()
	l, rec := openT(t, dir, Options{})
	t.Cleanup(func() { l.Close() })
	return l, rec
}

func TestWALGroupCommitCoalescesSyncs(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{FlushDelay: 2 * time.Millisecond})
	defer l.Close()
	const (
		appenders = 8
		perG      = 20
	)
	var wg sync.WaitGroup
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := l.Append([]byte("x")); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := l.StatsSnapshot()
	if st.Appends != appenders*perG {
		t.Fatalf("appends = %d, want %d", st.Appends, appenders*perG)
	}
	if st.Syncs >= st.Appends {
		t.Fatalf("group commit did not coalesce: %d syncs for %d appends", st.Syncs, st.Appends)
	}
	t.Logf("%d appends retired by %d fsyncs (%.2f appends/fsync)",
		st.Appends, st.Syncs, float64(st.Appends)/float64(st.Syncs))
}

func TestWALUnreadableCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := l.Append(recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(snapOf([]byte("good"))); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		if err := l.Append(recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Corrupt the published checkpoint's payload (bit rot — a torn write
	// cannot happen: the payload is fsynced before the rename publishes
	// it). The segments it superseded are pruned, so "replay what's
	// left" would silently forget the first five records — recovery must
	// refuse instead of opening a log that forgot its promises.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if _, ok := parseSeq(e.Name(), ckptPrefix, ckptSuffix); ok {
			p := filepath.Join(dir, e.Name())
			data, _ := os.ReadFile(p)
			data[len(data)-1] ^= 0xff
			os.WriteFile(p, data, 0o644)
		}
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open served a log whose only checkpoint is unreadable")
	}
}

func TestWALMissingSegmentRefused(t *testing.T) {
	// A gap in the replayable suffix (a segment vanished) is corruption,
	// not a shorter history.
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		if err := l.Append(recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if err := os.Remove(filepath.Join(dir, segName(2))); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a log with a missing segment")
	}
}

func TestWALTornHeaderTailTolerated(t *testing.T) {
	// A crash inside openSegment can leave the newest segment file
	// visible but without its magic. That segment holds nothing; recovery
	// must skip it (not refuse) and the next rotation recreates it.
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 6; i++ {
		if err := l.Append(recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if err := os.WriteFile(filepath.Join(dir, segName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, Options{})
	if len(rec.Records) != 6 {
		t.Fatalf("recovered %d records, want 6", len(rec.Records))
	}
	if err := l2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, rec2 := openT(t, dir, Options{})
	if len(rec2.Records) != 7 {
		t.Fatalf("post-torn-header history has %d records, want 7", len(rec2.Records))
	}
}

func TestWALTornHeaderAfterCheckpointKeepsNumbering(t *testing.T) {
	// Torn header on the segment the checkpoint rotation created: Open
	// must recreate it at the cut, not restart numbering below the
	// snapshot's coverage.
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 4; i++ {
		if err := l.Append(recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(snapOf([]byte("snap"))); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Tear the post-checkpoint segment's header.
	if err := os.WriteFile(filepath.Join(dir, segName(2)), []byte{'B', 'W'}, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, Options{})
	if string(rec.Snapshot) != "snap" || len(rec.Records) != 0 {
		t.Fatalf("recovered snapshot=%q records=%d", rec.Snapshot, len(rec.Records))
	}
	if err := l2.Append([]byte("post")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, rec2 := openT(t, dir, Options{})
	if string(rec2.Snapshot) != "snap" || len(rec2.Records) != 1 || string(rec2.Records[0]) != "post" {
		t.Fatalf("numbering broke: snapshot=%q records=%v", rec2.Snapshot, rec2.Records)
	}
}

func TestWALFrameCRC(t *testing.T) {
	// The frame layout is load-bearing for recovery; pin it.
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	payload := []byte("pinned")
	if err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	frame := data[len(segMagic):]
	if got := binary.BigEndian.Uint32(frame); got != uint32(len(payload)) {
		t.Fatalf("length prefix = %d", got)
	}
	if got := binary.BigEndian.Uint32(frame[4:]); got != crc32.ChecksumIEEE(payload) {
		t.Fatalf("crc mismatch")
	}
	if !bytes.Equal(frame[8:], payload) {
		t.Fatalf("payload mismatch")
	}
}

func TestWALCheckpointWithoutCutSegmentRefused(t *testing.T) {
	// The rotation that publishes ckpt-N durably creates seg-N first, so
	// a checkpoint with no segment at (or after) its cut means the
	// post-checkpoint suffix was deleted. Replaying snapshot-only would
	// silently forget every promise appended after the checkpoint —
	// recovery must refuse, exactly like a mid-suffix gap.
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := l.Append(recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(snapOf([]byte("snap"))); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Promises appended after the checkpoint live in the cut segment.
	if err := l.Append([]byte("post-checkpoint-promise")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.Remove(filepath.Join(dir, segName(2))); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a checkpoint whose cut segment is gone (post-checkpoint records silently dropped)")
	}
}

// TestWALLatencyHistogramsRecordWhenEnabled is the regression guard for
// the metrics-tax gating (basilvet BV005): Append and the flusher read
// the clock only when their histogram option is non-nil, and this test
// pins the other side of that bargain — with live histograms wired in,
// every successful Append is observed and at least one fsync is timed.
// A mean above a minute would mean a mismatched gate (recording
// time.Since of a zero start), so the bound catches half-gated code too.
func TestWALLatencyHistogramsRecordWhenEnabled(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	opts := Options{
		AppendLatency: reg.Histogram("test_wal_append_latency_seconds"),
		SyncLatency:   reg.Histogram("test_wal_sync_latency_seconds"),
	}
	l, _ := openT(t, dir, opts)
	const n = 25
	for i := 0; i < n; i++ {
		if err := l.Append(recN(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := opts.AppendLatency.Count(); got != n {
		t.Fatalf("append latency histogram recorded %d samples, want %d", got, n)
	}
	if got := opts.SyncLatency.Count(); got == 0 {
		t.Fatal("sync latency histogram recorded no samples")
	}
	for _, h := range []*metrics.Histogram{opts.AppendLatency, opts.SyncLatency} {
		if mean := h.SnapshotHist().MeanNanos(); mean > float64(time.Minute) {
			t.Fatalf("histogram mean %v ns is implausible — clock read and observation gates disagree", mean)
		}
	}
}

// TestWALSyncDelayInjection pins the slow-disk hook: an injected fsync
// delay must show up in append latency (the appender blocks behind the
// slowed group commit) while leaving the log's contents and durability
// accounting untouched. The scenario harness's slow-disk chaos storms
// rely on exactly this seam.
func TestWALSyncDelayInjection(t *testing.T) {
	dir := t.TempDir()
	const delay = 5 * time.Millisecond
	var calls atomic.Int64
	l, _ := openT(t, dir, Options{
		SyncDelay: func() time.Duration {
			calls.Add(1)
			return delay
		},
	})
	const n = 8
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := l.Append(recN(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	if calls.Load() == 0 {
		t.Fatal("SyncDelay was never consulted")
	}
	// Every append waited on a delayed sync; sequential appends therefore
	// cannot finish faster than one injected delay each (coalescing can
	// only merge concurrent appends, and these are serial).
	if min := time.Duration(n) * delay; elapsed < min {
		t.Fatalf("%d serial appends took %v, want >= %v with a %v injected sync delay", n, elapsed, min, delay)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, rec := openT(t, dir, Options{})
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), n)
	}
}

// parentCheckpointFile is the checkpoint file layout built the way it was
// before checkpoints were streamed: magic, u64 length and u32 CRC of the
// payload, then the payload, assembled in one buffer.
func parentCheckpointFile(payload []byte) []byte {
	buf := append([]byte{}, segMagic...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// stripedPayload is a deterministic payload several chunks long.
func stripedPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i/251)
	}
	return p
}

// TestWALCheckpointStreamedFormatUnchanged: a checkpoint streamed in
// uneven writes, several chunks long, is byte-for-byte the file the
// buffered writer produced, and the payload counter sees its length.
func TestWALCheckpointStreamedFormatUnchanged(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	bytesC := reg.Counter("ckpt_bytes")
	l, _ := openT(t, dir, Options{CheckpointBytes: bytesC})
	if err := l.Append(recN(0)); err != nil {
		t.Fatal(err)
	}
	payload := stripedPayload(3*ckptChunk + 1234)
	err := l.Checkpoint(func(w io.Writer) error {
		for rest, step := payload, 1; len(rest) > 0; step = step*3 + 1 {
			n := min(step, len(rest))
			if _, err := w.Write(rest[:n]); err != nil {
				return err
			}
			rest = rest[n:]
		}
		return nil
	})
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	l.Close()
	got, err := os.ReadFile(filepath.Join(dir, ckptName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, parentCheckpointFile(payload)) {
		t.Fatalf("streamed checkpoint file (%d bytes) differs from the buffered layout (%d bytes)",
			len(got), len(parentCheckpointFile(payload)))
	}
	if n := bytesC.Load(); n != uint64(len(payload)) {
		t.Fatalf("checkpoint bytes counter = %d, want %d", n, len(payload))
	}
	_, rec := mustRecover(t, dir)
	if !bytes.Equal(rec.Snapshot, payload) {
		t.Fatalf("recovered snapshot of %d bytes, want %d", len(rec.Snapshot), len(payload))
	}
}

// TestWALOpensParentFormatCheckpoint: a data dir whose checkpoint was
// written the buffered way — built here byte by byte, not by this
// package's writer — still opens, with its snapshot and log suffix.
func TestWALOpensParentFormatCheckpoint(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("snapshot written by the buffered checkpoint writer")
	if err := os.WriteFile(filepath.Join(dir, ckptName(3)), parentCheckpointFile(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	seg := append([]byte{}, segMagic...)
	for i := 0; i < 2; i++ {
		r := recN(i)
		seg = binary.BigEndian.AppendUint32(seg, uint32(len(r)))
		seg = binary.BigEndian.AppendUint32(seg, crc32.ChecksumIEEE(r))
		seg = append(seg, r...)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(3)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := mustRecover(t, dir)
	if !bytes.Equal(rec.Snapshot, payload) || len(rec.Records) != 2 || !bytes.Equal(rec.Records[1], recN(1)) {
		t.Fatalf("recovered snapshot=%q records=%q", rec.Snapshot, rec.Records)
	}
	if err := l.Checkpoint(snapOf([]byte("next"))); err != nil {
		t.Fatalf("checkpoint over a buffered-format dir: %v", err)
	}
}

// TestWALCheckpointEmptySnapshot: a snapshot function that writes nothing
// publishes a valid checkpoint with an empty payload.
func TestWALCheckpointEmptySnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	if err := l.Append(recN(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(func(io.Writer) error { return nil }); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := l.Append(recN(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, rec := mustRecover(t, dir)
	if rec.Snapshot == nil || len(rec.Snapshot) != 0 || len(rec.Records) != 1 {
		t.Fatalf("recovered snapshot=%q (nil=%v) records=%d", rec.Snapshot, rec.Snapshot == nil, len(rec.Records))
	}
}

// TestWALCheckpointSnapshotErrorKeepsPrevious: a snapshot that fails
// mid-stream fails Checkpoint with its error, leaves no temp file, and
// leaves the previous checkpoint (plus every segment after it) as the
// recovery point; the log keeps accepting appends.
func TestWALCheckpointSnapshotErrorKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := l.Append(recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(snapOf([]byte("first"))); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		if err := l.Append(recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	errBroken := errors.New("snapshot source broke")
	err := l.Checkpoint(func(w io.Writer) error {
		if _, err := w.Write(stripedPayload(2*ckptChunk + 5)); err != nil {
			return err
		}
		return errBroken
	})
	if !errors.Is(err, errBroken) {
		t.Fatalf("checkpoint error = %v, want %v", err, errBroken)
	}
	assertNoTmp(t, dir)
	for i := 10; i < 13; i++ {
		if err := l.Append(recN(i)); err != nil {
			t.Fatalf("append after failed checkpoint: %v", err)
		}
	}
	l.Close()
	_, rec := mustRecover(t, dir)
	if string(rec.Snapshot) != "first" || len(rec.Records) != 8 {
		t.Fatalf("recovered snapshot=%q with %d records, want \"first\" with 8", rec.Snapshot, len(rec.Records))
	}
	for i, r := range rec.Records {
		if !bytes.Equal(r, recN(5+i)) {
			t.Fatalf("suffix record %d = %q", i, r)
		}
	}
}

// TestWALPruneRemovesStrayTmp is the regression test for stray
// checkpoint temp files: one left below the cut by a crashed or failed
// checkpoint is pruned, while one at or above the cut (a checkpoint
// possibly still being written) is kept.
func TestWALPruneRemovesStrayTmp(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"ckpt-00000001.tmp", "ckpt-00000004.tmp", "ckpt-00000006.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := prune(dir, 5); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]bool{"ckpt-00000001.tmp": false, "ckpt-00000004.tmp": false, "ckpt-00000006.tmp": true} {
		_, err := os.Stat(filepath.Join(dir, name))
		if exists := err == nil; exists != want {
			t.Fatalf("%s exists=%v after prune at cut 5, want %v", name, exists, want)
		}
	}
}

func assertNoTmp(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == tmpSuffix {
			t.Fatalf("temp checkpoint file %s left behind", e.Name())
		}
	}
}
