package registry

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// FuzzReplicaApplyEntry feeds arbitrary replication pushes — the JSON body
// of POST /shard/replication, {epoch, entries}, which is also what a shard
// replays from its WAL — to a fresh replica, applying every entry in
// order. Then every entry name is resolved as "name", "name@latest",
// "name@v1" and "name@v<len+1>". Nothing may panic, and a resolve that
// succeeds must return a model and pin a version the replica was actually
// given: 1 <= N <= the most versions any accepted entry of that name
// carried. The seed corpus (testdata/fuzz/FuzzReplicaApplyEntry) holds a
// valid two-version entry, an entry with no versions (which once made the
// next Resolve panic), a zero tau1, a stale seq, and an epoch change.
//
//	go test -run '^$' -fuzz '^FuzzReplicaApplyEntry$' -fuzztime 20s ./internal/registry
func FuzzReplicaApplyEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var push struct {
			Epoch   uint64     `json:"epoch"`
			Entries []LogEntry `json:"entries"`
		}
		if json.Unmarshal(in, &push) != nil {
			return
		}
		total := 0
		for _, e := range push.Entries {
			total += len(e.Versions)
		}
		if total > 64 {
			return // each version builds a model; keep an input cheap
		}
		rep := NewReplica()
		applied := make(map[string]int) // most versions accepted per name
		for _, e := range push.Entries {
			if rep.ApplyEntry(push.Epoch, e) == nil {
				applied[e.Name] = max(applied[e.Name], len(e.Versions))
			}
		}
		for _, e := range push.Entries {
			refs := []string{e.Name, e.Name + "@latest", e.Name + "@v1", fmt.Sprintf("%s@v%d", e.Name, len(e.Versions)+1)}
			for _, ref := range refs {
				res, err := rep.Resolve(ref)
				if err != nil {
					continue
				}
				if res.Model == nil {
					t.Fatalf("Resolve(%q) returned a nil model", ref)
				}
				name, _, _ := ParseRef(ref)
				num, ok := strings.CutPrefix(res.Pinned, name+"@v")
				n, err := strconv.Atoi(num)
				if !ok || err != nil || res.Pinned != fmt.Sprintf("%s@v%d", name, n) {
					t.Fatalf("Resolve(%q) pinned %q, not %s@vN", ref, res.Pinned, name)
				}
				if n < 1 || n > applied[name] {
					t.Fatalf("Resolve(%q) pinned v%d; accepted entries of %q carried at most %d versions",
						ref, n, name, applied[name])
				}
			}
		}
	})
}
