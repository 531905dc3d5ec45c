// Shard directory layout for the sharded serving tier: each executor shard
// owns its own store (its own snapshot, WAL, lock file, and fsync stream).
// Shard 0's store lives in the data-dir root itself — exactly the
// pre-sharding layout, so a data dir written by an unsharded service boots
// unchanged as shard 0 of a sharded one — and shard i > 0 lives in the
// root's shard-00i subdirectory. The store reads only its own files, so
// the nested layout never confuses shard 0.

package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// shardDirPattern names shard subdirectories; the zero padding keeps
// directory listings in shard order for humans (parsing accepts any width).
const shardDirPattern = "shard-%03d"

// ShardDir returns shard i's data directory under root. Shard 0 is root
// itself, keeping single-shard deployments byte-compatible with the
// pre-sharding layout.
func ShardDir(root string, i int) string {
	if i <= 0 {
		return root
	}
	return filepath.Join(root, fmt.Sprintf(shardDirPattern, i))
}

// FindShardDirs scans root for shard subdirectories and returns their
// indices, ascending. Index 0 (root itself) is never listed — it always
// exists by definition. A missing root is an empty result, not an error:
// the first boot creates everything.
func FindShardDirs(root string) ([]int, error) {
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s for shard dirs: %w", root, err)
	}
	var idx []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var i int
		if n, err := fmt.Sscanf(e.Name(), shardDirPattern, &i); n == 1 && err == nil && i > 0 {
			// Round-trip the index through the canonical name so a stray
			// "shard-1x" or "shard-0001" directory is never misclaimed.
			if fmt.Sprintf(shardDirPattern, i) == e.Name() {
				idx = append(idx, i)
			}
		}
	}
	sort.Ints(idx)
	return idx, nil
}
