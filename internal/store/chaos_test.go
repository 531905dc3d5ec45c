package store

// Chaos tests: the fault-injection matrix, driving the store through
// scripted syscall failures (Nth fsync, torn write, ENOSPC, broken
// rename/remove) at each phase (append, online compaction, boot replay)
// and asserting it recovers byte-identical state or refuses to serve —
// never silently corrupts.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/faultfs"
)

// openInjected opens a log over an Injector with the given extra options.
func openInjected(t *testing.T, dir string, opts Options) (*Log, *faultfs.Injector) {
	t.Helper()
	inj := faultfs.Wrap(nil)
	opts.FS = inj
	l, err := OpenOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, inj
}

// replayAll reopens dir with a clean filesystem and returns the replayed
// records.
func replayAll(t *testing.T, dir string) []Record {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	return append([]Record(nil), l.Records()...)
}

func mustAppend(t *testing.T, l *Log, kind string, n int) Record {
	t.Helper()
	rec, err := l.Append(kind, "id", payload{N: n})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// replayAllLive closes l and reopens its dir cleanly.
func replayAllLive(t *testing.T, l *Log) []Record {
	t.Helper()
	dir := l.dir
	l.Close()
	return replayAll(t, dir)
}

// Satellite (a): an append whose write succeeds but whose fsync fails must
// not be acknowledged, and the record must not surface on replay.
func TestAppendFsyncFailureNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	l, inj := openInjected(t, dir, Options{})
	mustAppend(t, l, "event", 1)
	inj.Script(faultfs.Rule{Op: faultfs.OpSync, Path: "wal", Count: 1})
	if _, err := l.Append("event", "id", payload{N: 2}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append with failed fsync: err = %v, want ErrInjected", err)
	}
	if trips := inj.Trips(); len(trips) != 1 || trips[0].Op != faultfs.OpSync {
		t.Fatalf("trips = %+v", trips)
	}
	// The fault is gone; the log rolled its tail back and keeps working.
	mustAppend(t, l, "event", 3)
	recs := replayAllLive(t, l)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2 (unacknowledged append must not surface)", len(recs))
	}
	for i, want := range []int{1, 3} {
		if p := decodePayload(t, recs[i]); p.N != want {
			t.Fatalf("record %d payload N = %d, want %d", i, p.N, want)
		}
	}
}

func decodePayload(t *testing.T, rec Record) payload {
	t.Helper()
	var p payload
	if err := json.Unmarshal(rec.Data, &p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTornWriteRolledBack: a torn write leaves a partial line on disk; the
// rollback truncates it so the next append starts on a clean boundary.
func TestTornWriteRolledBack(t *testing.T) {
	dir := t.TempDir()
	l, inj := openInjected(t, dir, Options{})
	mustAppend(t, l, "event", 1)
	inj.Script(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal", ShortBytes: 7, Count: 1})
	if _, err := l.Append("event", "id", payload{N: 2}); err == nil {
		t.Fatal("torn write acknowledged")
	}
	mustAppend(t, l, "event", 3)
	recs := replayAllLive(t, l)
	if len(recs) != 2 || decodePayload(t, recs[1]).N != 3 {
		t.Fatalf("replay after torn write = %+v", recs)
	}
}

// TestENOSPCOnAppend: out-of-space fails the append cleanly and the log
// recovers when space comes back.
func TestENOSPCOnAppend(t *testing.T) {
	dir := t.TempDir()
	l, inj := openInjected(t, dir, Options{})
	inj.Script(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal", Err: syscall.ENOSPC, Count: 1})
	if _, err := l.Append("event", "id", payload{N: 1}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	mustAppend(t, l, "event", 2)
	if recs := replayAllLive(t, l); len(recs) != 1 || decodePayload(t, recs[0]).N != 2 {
		t.Fatalf("replay after ENOSPC = %+v", recs)
	}
}

// TestRollbackFailurePoisonsThenRecovers: write fails AND the rollback
// truncate fails — the log must refuse appends (poisoned) rather than risk
// a merged line, then Recover() heals it once the disk behaves.
func TestRollbackFailurePoisonsThenRecovers(t *testing.T) {
	dir := t.TempDir()
	l, inj := openInjected(t, dir, Options{})
	mustAppend(t, l, "event", 1)
	inj.Script(
		faultfs.Rule{Op: faultfs.OpWrite, Path: "wal", ShortBytes: 5, Count: 1},
		faultfs.Rule{Op: faultfs.OpTruncate, Path: "wal", Count: 1},
	)
	if _, err := l.Append("event", "id", payload{N: 2}); err == nil {
		t.Fatal("append acknowledged through a torn write")
	}
	if !l.Stats().Poisoned {
		t.Fatal("log not poisoned after failed rollback")
	}
	if _, err := l.Append("event", "id", payload{N: 3}); err == nil {
		t.Fatal("poisoned log accepted an append")
	}
	inj.Clear()
	if err := l.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	mustAppend(t, l, "event", 4)
	recs := replayAllLive(t, l)
	if len(recs) != 2 || decodePayload(t, recs[1]).N != 4 {
		t.Fatalf("replay after recover = %+v", recs)
	}
}

// TestOnlineCompactCrashWindowRoundTrips simulates kill -9 in the window
// between Compact's snapshot rename and its WAL truncation while the log
// is live: the restored stale records must be shadowed by the snapshot's
// seq, and appends must continue past them.
func TestOnlineCompactCrashWindowRoundTrips(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var live []Record
	for i := 1; i <= 6; i++ {
		live = append(live, mustAppend(t, l, "event", i))
	}
	walPath := filepath.Join(dir, walName)
	pre, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(live); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// "kill -9 before the truncate": resurrect the pre-compaction WAL.
	if err := os.WriteFile(walPath, pre, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if recs := l2.Records(); len(recs) != 6 {
		t.Fatalf("replayed %d records, want 6 (stale WAL must be shadowed): %+v", len(recs), recs)
	}
	rec := mustAppend(t, l2, "event", 7)
	if rec.Seq != 7 {
		t.Fatalf("post-recovery seq = %d, want 7", rec.Seq)
	}
	l2.Close()
	if n := len(replayAll(t, dir)); n != 7 {
		t.Fatalf("final replay = %d records, want 7", n)
	}
}

// writeWAL writes one WAL file of records numbered seqs, as Append writes
// them, to dir/name.
func writeWAL(t *testing.T, dir, name string, seqs ...int) {
	t.Helper()
	var buf []byte
	for _, seq := range seqs {
		line, err := json.Marshal(Record{Seq: uint64(seq), Kind: "event", ID: "id", Data: json.RawMessage(fmt.Sprintf(`{"n":%d}`, seq))})
		if err != nil {
			t.Fatal(err)
		}
		buf = append(append(buf, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// appendBytes appends raw bytes to dir/name.
func appendBytes(t *testing.T, dir, name, raw string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(raw); err != nil {
		t.Fatal(err)
	}
}

// legacySegmentsLeft lists the wal-*.jsonl files in dir.
func legacySegmentsLeft(t *testing.T, dir string) []string {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "wal-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// TestLegacySegmentedDirBoots boots a data dir as the rotating WAL left it
// — wal.jsonl, wal-000001.jsonl and wal-000002.jsonl, with a torn tail in
// the last — and requires every acknowledged record back in seq order,
// folded into the snapshot with no segment file left behind, and a reopen
// that replays identical records.
func TestLegacySegmentedDirBoots(t *testing.T) {
	dir := t.TempDir()
	writeWAL(t, dir, walName, 1, 2, 3)
	writeWAL(t, dir, "wal-000001.jsonl", 4, 5, 6)
	writeWAL(t, dir, "wal-000002.jsonl", 7, 8)
	appendBytes(t, dir, "wal-000002.jsonl", `{"seq":9,"kind":"ev`)

	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := append([]Record(nil), l.Records()...)
	if len(first) != 8 {
		t.Fatalf("replayed %d records, want 8", len(first))
	}
	for i, rec := range first {
		if rec.Seq != uint64(i+1) || decodePayload(t, rec).N != i+1 {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
	if st := l.Stats(); !st.TornTail || st.WALRecords != 0 || st.WALBytes != 0 {
		t.Fatalf("stats = %+v, want a torn tail and an empty WAL after the fold", st)
	}
	if left := legacySegmentsLeft(t, dir); len(left) != 0 {
		t.Fatalf("legacy segments left behind: %v", left)
	}
	l.Close()
	if again := replayAll(t, dir); !reflect.DeepEqual(first, again) {
		t.Fatalf("reopen replayed\n%+v\nwant\n%+v", again, first)
	}
	l, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec := mustAppend(t, l, "event", 9); rec.Seq != 9 {
		t.Fatalf("first append after the fold has seq %d, want 9", rec.Seq)
	}
	if recs := replayAllLive(t, l); len(recs) != 9 || !reflect.DeepEqual(recs[:8], first) {
		t.Fatalf("replay after an append = %+v", recs)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-000003.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("an append wrote a segment file: %v", err)
	}
}

// TestLegacySegmentRemoveFaultRefusesOpen: a fault removing a legacy
// segment after the fold refuses the open, since a leftover segment would
// sit after wal.jsonl in replay order. The snapshot already shadows it, so
// a clean reopen replays the same records and finishes the removal.
func TestLegacySegmentRemoveFaultRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	writeWAL(t, dir, walName, 1, 2)
	writeWAL(t, dir, "wal-000001.jsonl", 3, 4)
	writeWAL(t, dir, "wal-000002.jsonl", 5)
	inj := faultfs.Wrap(nil)
	inj.Script(faultfs.Rule{Op: faultfs.OpRemove, Path: "wal-000002"})
	if _, err := OpenOptions(dir, Options{FS: inj}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("open with a failing remove: err = %v, want ErrInjected", err)
	}
	recs := replayAll(t, dir)
	if len(recs) != 5 || recs[4].Seq != 5 {
		t.Fatalf("replay after the refused open = %+v", recs)
	}
	if left := legacySegmentsLeft(t, dir); len(left) != 0 {
		t.Fatalf("legacy segments left behind: %v", left)
	}
}

// TestSnapshotRenameFaultKeepsOldState: a broken rename fails the
// compaction atomically — the old snapshot and full WAL still replay.
func TestSnapshotRenameFaultKeepsOldState(t *testing.T) {
	dir := t.TempDir()
	l, inj := openInjected(t, dir, Options{})
	for i := 1; i <= 3; i++ {
		mustAppend(t, l, "event", i)
	}
	inj.Script(faultfs.Rule{Op: faultfs.OpRename, Path: snapshotName, Count: 1})
	if err := l.Compact(l.Records()); err == nil {
		t.Fatal("compact succeeded through a failed snapshot rename")
	}
	mustAppend(t, l, "event", 4)
	if recs := replayAllLive(t, l); len(recs) != 4 {
		t.Fatalf("replay after failed compact = %+v", recs)
	}
}

// TestSnapshotWriteENOSPCKeepsOldState: no space for the snapshot temp
// file — compaction fails, nothing is lost.
func TestSnapshotWriteENOSPCKeepsOldState(t *testing.T) {
	dir := t.TempDir()
	l, inj := openInjected(t, dir, Options{})
	rec := mustAppend(t, l, "event", 1)
	inj.Script(faultfs.Rule{Op: faultfs.OpWrite, Path: ".tmp", Err: syscall.ENOSPC})
	if err := l.Compact([]Record{rec}); err == nil {
		t.Fatal("compact succeeded with ENOSPC on the snapshot")
	}
	inj.Clear()
	if err := l.Compact([]Record{rec}); err != nil {
		t.Fatalf("compact after fault cleared: %v", err)
	}
	if recs := replayAllLive(t, l); len(recs) != 1 {
		t.Fatalf("replay = %+v", recs)
	}
}

// TestTornTailInClosedSegmentRefusesOpen: only the last WAL file may
// carry a torn tail, since appends only ever went to the last one; a tear
// in an earlier one means acknowledged records were damaged, and the store
// must refuse to serve rather than guess.
func TestTornTailInClosedSegmentRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	writeWAL(t, dir, walName, 1, 2)
	writeWAL(t, dir, "wal-000001.jsonl", 3, 4)
	appendBytes(t, dir, walName, `{"seq":3,"kind":"ev`)
	if _, err := Open(dir); err == nil {
		t.Fatal("open succeeded with a torn tail in a closed segment")
	}
}

// TestCompactionTriggerFiresOnceUntilCompact: the trigger callback fires
// when the WAL crosses the bound, stays quiet until a Compact re-arms it,
// then fires again.
func TestCompactionTriggerFiresOnceUntilCompact(t *testing.T) {
	dir := t.TempDir()
	// Each record line is ~50 bytes, so the third append crosses the bound.
	l, err := OpenOptions(dir, Options{CompactAtBytes: 120})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fired := 0
	l.SetCompactionTrigger(func() { fired++ })
	for i := 1; i <= 6; i++ {
		mustAppend(t, l, "event", i)
	}
	if fired != 1 {
		t.Fatalf("trigger fired %d times before compact, want 1", fired)
	}
	if err := l.Compact(l.Records()); err != nil {
		t.Fatal(err)
	}
	for i := 7; i <= 12; i++ {
		mustAppend(t, l, "event", i)
	}
	if fired != 2 {
		t.Fatalf("trigger fired %d times after re-arm, want 2", fired)
	}
}

// TestBootReplayReadFaultRefusesOpen: an I/O error reading the WAL at
// boot refuses the open instead of serving partial state.
func TestBootReplayReadFaultRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "event", 1)
	l.Close()
	inj := faultfs.Wrap(nil)
	inj.Script(faultfs.Rule{Op: faultfs.OpRead, Path: "wal"})
	if _, err := OpenOptions(dir, Options{FS: inj}); err == nil {
		t.Fatal("open served state it could not fully read")
	}
}

// TestReopenStateIdentical: a compacted, re-appended log replays the exact
// same records across a clean close/open cycle.
func TestReopenStateIdentical(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var live []Record
	for i := 1; i <= 5; i++ {
		live = append(live, mustAppend(t, l, "event", i))
	}
	if err := l.Compact(live); err != nil {
		t.Fatal(err)
	}
	for i := 6; i <= 9; i++ {
		mustAppend(t, l, "event", i)
	}
	l.Close()
	first := replayAll(t, dir)
	second := replayAll(t, dir)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replay not stable:\n%+v\nvs\n%+v", first, second)
	}
	if len(first) != 9 {
		t.Fatalf("replay = %d records, want 9", len(first))
	}
}
