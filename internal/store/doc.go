// Package store is a small durable event log: an append-only write-ahead
// log of JSON records in one file plus a JSON snapshot that compacts it.
// It is the persistence substrate for the session manager in
// internal/serve — the same discipline the paper applies to jobs (cheap
// periodic checkpoints, bounded replay after a failure) applied to the
// service's own control state.
//
// # Layout
//
// Inside the data directory:
//
//	snapshot.json — {"seq": N, "records": [...]} written atomically (temp
//	                file + fsync + rename + dir fsync); the compacted
//	                prefix of the log.
//	wal.jsonl     — the WAL: one JSON record per line, fsynced per append.
//	lock          — flock'd for the lifetime of the Log, so a second
//	                process pointed at the same dir fails at Open.
//
// Logs written while the WAL rotated may also hold wal-000001.jsonl and
// up. Open replays them after wal.jsonl in index order, folds every
// replayed record into the snapshot, and removes them before it returns,
// so appends only ever go to wal.jsonl.
//
// # Online compaction
//
// Compaction is the checkpoint, and it alone bounds replay time and disk.
// When the WAL grows past Options.CompactAtBytes, the callback installed
// with SetCompactionTrigger fires (once, until a Compact resets it) so the
// owner can rewrite the snapshot from live state while continuing to
// serve; Compact then truncates the WAL.
//
// All file and directory operations go through a faultfs.FS seam
// (Options.FS; the real filesystem by default), so chaos tests can script
// a failed Nth fsync, a torn write, ENOSPC, or a broken rename at any of
// these moments and assert the guarantees below hold.
//
// # Crash and fault matrix
//
// The invariants the store_test / chaos suites enforce, by phase:
//
//	append   — a record is acknowledged only after write + fsync succeed.
//	           A failed write or fsync rolls the tail back to the last
//	           acknowledged boundary; if even the rollback fails the log is
//	           poisoned (appends fail) until Recover. A torn final line
//	           (crash mid-write) is discarded at Open and flagged in Stats;
//	           replay never surfaces an unacknowledged record.
//	compact  — the snapshot is durable (file fsync + rename + dir fsync)
//	           before any WAL byte is dropped. A crash between rename and
//	           truncate leaves stale WAL records that the snapshot already
//	           covers; replay skips them by sequence number. Folding legacy
//	           segment files at Open follows the same order, and a failed
//	           removal refuses the open; the next Open folds again.
//	replay   — the WAL is read whole, so every record Append acknowledged
//	           comes back however long its line. A malformed line, a line
//	           whose seq does not exceed the one before it, or a torn tail
//	           in any legacy file but the last is corruption: Open returns
//	           an error rather than silently dropping acknowledged records.
//	           So does a read fault at boot.
//
// Records are opaque to this package beyond (Seq, Kind, ID, Data); the
// schema lives with the caller. The replayed slice is released on the
// first Compact so boot state is not pinned for the process lifetime.
package store
