package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the dataset decoder. It must never
// panic; every dataset it accepts must hold only lifetimes inside the
// paper's 24-hour window; and an accepted dataset must survive a
// WriteCSV/ReadCSV round trip unchanged, lifetimes bit for bit. The seed
// corpus (testdata/fuzz/FuzzReadCSV) holds a small dataset, quoted fields,
// and the rejected shapes: bad header, bad and out-of-range lifetimes, a
// short row, and a NaN lifetime (which ReadCSV once accepted).
//
//	go test -run '^$' -fuzz '^FuzzReadCSV$' -fuzztime 30s ./internal/trace
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		ds, err := ReadCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		for i, r := range ds.Records {
			if math.IsNaN(r.Lifetime) || r.Lifetime < 0 || r.Lifetime > Deadline+1e-9 {
				t.Fatalf("record %d: accepted lifetime %v outside [0, %v]", i, r.Lifetime, Deadline)
			}
		}
		var out bytes.Buffer
		if err := ds.WriteCSV(&out); err != nil {
			t.Fatalf("re-encoding an accepted dataset: %v", err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-reading a re-encoded dataset: %v\n%s", err, out.Bytes())
		}
		if back.Len() != ds.Len() {
			t.Fatalf("round trip kept %d of %d records", back.Len(), ds.Len())
		}
		for i, r := range ds.Records {
			b := back.Records[i]
			if b.Scenario != r.Scenario || math.Float64bits(b.Lifetime) != math.Float64bits(r.Lifetime) {
				t.Fatalf("record %d: round trip %+v, want %+v", i, b, r)
			}
		}
	})
}
