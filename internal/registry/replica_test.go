package registry

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// wireReplica attaches a fresh replica to the registry's commit fan-out.
func wireReplica(r *Registry) *Replica {
	rep := NewReplica()
	r.SetOnApply(rep.Apply)
	return rep
}

func TestReplicaMirrorsResolve(t *testing.T) {
	r := New()
	rep := wireReplica(r)
	mustCreate(t, r, "east")
	if _, err := r.Refit("east", "t1", "refit", nil); !errors.Is(err, ErrNotReady) {
		// Just pinning the precondition: a refit needs buffered samples.
		t.Fatalf("unexpected refit error: %v", err)
	}

	for _, ref := range []string{"east", "east@latest", "east@v1"} {
		want, err := r.Resolve(ref)
		if err != nil {
			t.Fatalf("registry Resolve(%q): %v", ref, err)
		}
		got, err := rep.Resolve(ref)
		if err != nil {
			t.Fatalf("replica Resolve(%q): %v", ref, err)
		}
		if got.Pinned != want.Pinned || got.Name != want.Name || got.Scenario != want.Scenario {
			t.Fatalf("replica Resolve(%q) = %+v, registry = %+v", ref, got, want)
		}
		if got.Model != want.Model {
			t.Fatalf("replica Resolve(%q) returned a different *core.Model than the registry: "+
				"replicas must share model pointers so the schedule cache keys stay consistent", ref)
		}
	}
}

func TestReplicaSeesPublishedVersions(t *testing.T) {
	r := New()
	rep := wireReplica(r)
	mustCreate(t, r, "east")
	v, err := r.Publish("east", Provenance{Family: "manual", Params: testParams(), Source: "refit"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Number != 2 {
		t.Fatalf("published v%d, want v2", v.Number)
	}
	got, err := rep.Resolve("east@latest")
	if err != nil {
		t.Fatal(err)
	}
	if got.Pinned != "east@v2" {
		t.Fatalf("replica latest = %s, want east@v2", got.Pinned)
	}
	// The older version stays resolvable — pinned sessions depend on it.
	if _, err := rep.Resolve("east@v1"); err != nil {
		t.Fatalf("replica lost v1 after v2 published: %v", err)
	}
}

func TestReplicaErrors(t *testing.T) {
	r := New()
	rep := wireReplica(r)
	mustCreate(t, r, "east")
	if _, err := rep.Resolve("west"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown entry: got %v, want ErrNotFound", err)
	}
	if _, err := rep.Resolve("east@v9"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown version: got %v, want ErrNotFound", err)
	}
	if _, err := rep.Resolve("@bad"); err == nil {
		t.Fatal("malformed ref resolved")
	}
}

func TestReplicaSeededByRestore(t *testing.T) {
	src := New()
	mustCreate(t, src, "east")
	states := src.Snapshot()

	dst := New()
	rep := wireReplica(dst)
	for _, st := range states {
		if err := dst.RestoreEntry(st); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rep.Resolve("east@v1"); err != nil {
		t.Fatalf("restore did not replicate: %v", err)
	}
}

func TestReplicaRefusesVersionRegression(t *testing.T) {
	rep := NewReplica()
	r := New()
	wireReplica(r) // unused; build updates by hand below
	mustCreate(t, r, "east")
	res, err := r.Resolve("east@v1")
	if err != nil {
		t.Fatal(err)
	}
	rep.Apply(Update{Name: "east", Scenario: res.Scenario,
		Versions: []Version{{Number: 1}, {Number: 2}},
		Models:   []*core.Model{res.Model, res.Model}})
	rep.Apply(Update{Name: "east", Scenario: res.Scenario,
		Versions: []Version{{Number: 1}}, Models: []*core.Model{res.Model}})
	if rep.Entries() != 1 {
		t.Fatalf("entries = %d, want 1", rep.Entries())
	}
	got, err := rep.Resolve("east@latest")
	if err != nil {
		t.Fatal(err)
	}
	if got.Pinned != "east@v2" {
		t.Fatalf("a stale update regressed the replica to %s; latest must stay east@v2", got.Pinned)
	}
}

// TestReplicaApplyEntryRejectsEmptyVersions pins the fix for a replication
// entry with no versions: ApplyEntry once installed it, and the next
// Resolve of the bare name indexed version -1 and panicked. The entry must
// be refused and leave the replica as it was.
func TestReplicaApplyEntryRejectsEmptyVersions(t *testing.T) {
	rep := NewReplica()
	if err := rep.ApplyEntry(7, LogEntry{Seq: 1, Name: "east"}); err == nil {
		t.Fatal("ApplyEntry accepted an entry with no versions")
	}
	if rep.Entries() != 0 {
		t.Fatalf("entries = %d after a refused entry, want 0", rep.Entries())
	}
	if epoch, seq := rep.Cursor(); epoch != 0 || seq != 0 {
		t.Fatalf("cursor = (%d, %d) after a refused entry, want (0, 0)", epoch, seq)
	}
	for _, ref := range []string{"east", "east@latest", "east@v1"} {
		if _, err := rep.Resolve(ref); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Resolve(%q) = %v, want ErrNotFound", ref, err)
		}
	}

	// A refused entry must not wipe an entry the replica already serves.
	u := logTestUpdate(t, "east", 1)
	if err := rep.ApplyEntry(7, LogEntry{Seq: 2, Name: "east", Scenario: u.Scenario, Versions: u.Versions}); err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplyEntry(7, LogEntry{Seq: 3, Name: "east", Scenario: u.Scenario}); err == nil {
		t.Fatal("ApplyEntry accepted an entry with no versions over a live one")
	}
	got, err := rep.Resolve("east")
	if err != nil || got.Pinned != "east@v1" {
		t.Fatalf("Resolve(east) = %+v, %v; want east@v1", got, err)
	}
}
