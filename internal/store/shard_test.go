package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestShardDirLayout(t *testing.T) {
	if got := ShardDir("/data", 0); got != "/data" {
		t.Fatalf("ShardDir(0) = %q; shard 0 must be the root itself", got)
	}
	if got := ShardDir("/data", 3); got != filepath.Join("/data", "shard-003") {
		t.Fatalf("ShardDir(3) = %q", got)
	}
}

func TestFindShardDirs(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"shard-001", "shard-003", "shard-010"} {
		if err := os.Mkdir(filepath.Join(root, name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// Noise that must not be claimed: files, non-canonical names, and the
	// root's own store files.
	if err := os.Mkdir(filepath.Join(root, "shard-0001"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(root, "backup"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "shard-002"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := FindShardDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("FindShardDirs = %v, want %v", got, want)
	}
}

func TestFindShardDirsMissingRoot(t *testing.T) {
	got, err := FindShardDirs(filepath.Join(t.TempDir(), "nope"))
	if err != nil || got != nil {
		t.Fatalf("missing root: got %v, %v; want nil, nil", got, err)
	}
}

// TestShardStoresCoexist opens a store in the root and one in a shard
// subdirectory and verifies neither replays the other's records: the root
// store's scan for legacy WAL segments must ignore the shard-001
// directory.
func TestShardStoresCoexist(t *testing.T) {
	root := t.TempDir()
	s1 := ShardDir(root, 1)
	if err := os.MkdirAll(s1, 0o755); err != nil {
		t.Fatal(err)
	}
	l0, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer l0.Close()
	l1, err := Open(s1)
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	if _, err := l0.Append("create", "s-001", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l1.Append("create", "s-002", nil); err != nil {
		t.Fatal(err)
	}
	l0.Close()
	l1.Close()

	r0, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()
	r1, err := Open(s1)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	if recs := r0.Records(); len(recs) != 1 || recs[0].ID != "s-001" {
		t.Fatalf("root store replayed %v; want only s-001", recs)
	}
	if recs := r1.Records(); len(recs) != 1 || recs[0].ID != "s-002" {
		t.Fatalf("shard store replayed %v; want only s-002", recs)
	}
}
