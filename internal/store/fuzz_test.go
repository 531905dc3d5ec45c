package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenWAL feeds arbitrary bytes to Open as wal.jsonl, alone or beside
// a valid snapshot at seq 2. Open must either refuse, or replay records
// with strictly increasing Seq; when it opens, one Append, Close and
// reopen must replay exactly one more record, the appended one. The seeds
// are a valid log, a torn tail that still parses as JSON, corruption in
// the middle of the file, records the snapshot's seq shadows, and a
// repeated seq (which Open once replayed twice).
//
//	go test -run '^$' -fuzz '^FuzzOpenWAL$' -fuzztime 20s ./internal/store
func FuzzOpenWAL(f *testing.F) {
	valid := `{"seq":1,"kind":"event","id":"id","data":{"n":1}}` + "\n" +
		`{"seq":2,"kind":"event","id":"id"}` + "\n" +
		`{"seq":3,"kind":"event","id":"id","data":{"n":3}}` + "\n"
	f.Add([]byte(valid), false)
	f.Add([]byte(valid+`{"seq":4,"kind":"event","id":"id"}`), false)
	f.Add([]byte(`{"seq":1,"kind":"event"}`+"\n{corrupt}\n"+`{"seq":3,"kind":"event"}`+"\n"), false)
	f.Add([]byte(valid), true)
	f.Add([]byte(`{"seq":1,"kind":"event"}`+"\n"+`{"seq":1,"kind":"event"}`+"\n"), false)

	snapshot := []byte(`{"seq":2,"records":[{"seq":1,"kind":"create","id":"s-1"},{"seq":2,"kind":"bag","id":"s-1","data":{"jobs":3}}]}`)
	f.Fuzz(func(t *testing.T, wal []byte, withSnapshot bool) {
		dir := t.TempDir()
		if withSnapshot {
			if err := os.WriteFile(filepath.Join(dir, snapshotName), snapshot, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir)
		if err != nil {
			return
		}
		before := requireIncreasing(t, l.Records())
		l.SetSync(false)
		rec, err := l.Append("event", "id", payload{N: 1})
		if err != nil {
			t.Fatalf("append on an opened log: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		after := requireIncreasing(t, replayAll(t, dir))
		if len(after) != len(before)+1 {
			t.Fatalf("reopen replayed %d records, want %d + the appended one", len(after), len(before))
		}
		if last := after[len(after)-1]; last.Seq != rec.Seq || last.Kind != rec.Kind || string(last.Data) != string(rec.Data) {
			t.Fatalf("last replayed record = %+v, want the appended %+v", last, rec)
		}
	})
}

// requireIncreasing fails unless recs' Seqs strictly increase, and
// returns recs.
func requireIncreasing(t *testing.T, recs []Record) []Record {
	t.Helper()
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("record %d has seq %d after %d", i, recs[i].Seq, recs[i-1].Seq)
		}
	}
	return recs
}
