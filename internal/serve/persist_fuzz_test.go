package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/store"
)

// FuzzParseStoreRecords feeds arbitrary WAL content — one store record per
// line, the form wal.jsonl holds — to parseStoreRecords, the decoder
// every boot replays through. Lines that are not a record are dropped (the
// store's own scan refuses them before this layer sees anything). Nothing
// may panic, and a parse that succeeds must list each live session exactly
// once in its order, with a pending entry behind every listed id and none
// beside them. The seeds are a current lifecycle (create, bag, run,
// cancelled, delete), done/failed/cancelled records in the older format
// that carried the report and job listing, unknown kinds, records for
// unknown sessions, corrupt payloads, a duplicated create, a
// delete-then-recreate, and the replica records remote shards' logs
// carried while the registry was replicated to them (valid and corrupt).
//
//	go test -run '^$' -fuzz '^FuzzParseStoreRecords$' -fuzztime 20s ./internal/serve
func FuzzParseStoreRecords(f *testing.F) {
	cfg, err := json.Marshal(createRecord{Name: "w", Config: testConfig(1).withDefaults()})
	if err != nil {
		f.Fatal(err)
	}
	line := func(kind, id, data string) string {
		rec := store.Record{Kind: kind, ID: id}
		if data != "" {
			rec.Data = json.RawMessage(data)
		}
		raw, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		return string(raw) + "\n"
	}
	create := line(kindCreate, "s-001", string(cfg))
	bag := line(kindBag, "s-001", `{"app":"shapes","jobs":4,"seed":1}`)
	run := line(kindRun, "s-001", "")
	for _, seed := range []string{
		// A current lifecycle, and one stopped by a cancel.
		create + bag + run,
		create + bag + run + line(kindCancelled, "s-001", `{"progress":{"engine_steps":512,"jobs_total":4},"error":"batch: run cancelled"}`) + line(kindDelete, "s-001", ""),
		// The older format's terminal records, report and listing included.
		create + bag + run + line("done", "s-001", `{"report":{"jobs_completed":4,"total_cost_usd":1.5},"jobs":[{"id":"j-1","state":"done"}],"progress":{"engine_steps":40}}`),
		create + bag + run + line("failed", "s-001", `{"jobs":[],"error":"batch: session run panicked"}`),
		create + bag + run + line(kindCancelled, "s-001", `{"jobs":[{"id":"j-1"}],"jobs_elided":true,"progress":{"engine_steps":256},"error":"cancelled"}`),
		// Unknown kinds, unknown sessions, noops and manager-level records.
		line("mystery", "s-009", `{"x":1}`) + line(kindBag, "s-404", `{"app":"shapes","jobs":1}`) + line(kindNoop, "", "") + line(kindSeq, "", `{"max":7}`) + create,
		// Corrupt payloads.
		create + line(kindBag, "s-001", `"not a bag"`),
		line(kindCreate, "s-002", `[1,2]`),
		create + line(kindCancelled, "s-001", `{"progress":"x"}`),
		line(kindSeq, "", `{"max":"high"}`),
		// A create repeated without a delete, and a delete-then-recreate.
		create + create + bag,
		create + bag + line(kindDelete, "s-001", "") + create + run,
		// Legacy replica records ahead of a model_ref create.
		line(legacyReplicaKind, "east", `{"epoch":7,"entry":{"seq":1,"name":"east","scenario":{"vm_type":"n1-highcpu-16","zone":"us-east1-b"},"versions":[{"version":1,"family":"manual","params":{"a":0.45,"tau1":1,"tau2":0.8,"b":24,"l":24},"source":"register"}]}}`) +
			line(kindCreate, "s-001", `{"config":{"vm_type":"n1-highcpu-16","zone":"us-east1-b","vms":4,"model_ref":"east@v1"}}`) + run,
		line(legacyReplicaKind, "east", `{"entry":{"versions":"none"}}`) + create,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var recs []store.Record
		sc := bufio.NewScanner(bytes.NewReader(in))
		for sc.Scan() {
			var rec store.Record
			if json.Unmarshal(sc.Bytes(), &rec) == nil {
				recs = append(recs, rec)
			}
		}
		ps, err := parseStoreRecords(recs)
		if err != nil {
			return
		}
		listed := make(map[string]bool, len(ps.order))
		for _, id := range ps.order {
			if listed[id] {
				t.Fatalf("session %s listed twice in %v", id, ps.order)
			}
			listed[id] = true
			if ps.sessions[id] == nil {
				t.Fatalf("listed session %s has no pending state", id)
			}
		}
		if len(ps.sessions) != len(ps.order) {
			t.Fatalf("%d pending sessions, %d listed (%v)", len(ps.sessions), len(ps.order), ps.order)
		}
	})
}
