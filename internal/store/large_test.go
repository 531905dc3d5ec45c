//go:build largewal && !race

package store

import (
	"bytes"
	"runtime/debug"
	"strings"
	"testing"
)

// TestAppendOver256MiBReplays appends one record whose line is over 256
// MiB and requires the reopen to hand it back: replay reads back every
// record Append acknowledged, however long its line. It allocates about a
// gigabyte at its peak, so it is left out of the default suite, where
// packages test in parallel, and out of race builds; run it alone with
//
//	go test -tags largewal -run '^TestAppendOver256MiBReplays$' ./internal/store
func TestAppendOver256MiBReplays(t *testing.T) {
	const size = 257 << 20
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l.SetSync(false)
	if _, err := l.Append("big", "id", strings.Repeat("x", size)); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "event", 2)
	l.Close()
	debug.FreeOSMemory()

	recs := replayAll(t, dir)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	data := recs[0].Data
	if recs[0].Kind != "big" || len(data) != size+2 || bytes.Count(data, []byte("x")) != size {
		t.Fatalf("big record came back as kind %q with %d data bytes, want %d", recs[0].Kind, len(data), size+2)
	}
	if recs[1].Seq != 2 || decodePayload(t, recs[1]).N != 2 {
		t.Fatalf("record after the big one = %+v", recs[1])
	}
}
