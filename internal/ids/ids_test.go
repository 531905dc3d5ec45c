package ids

import (
	"fmt"
	"testing"
)

func TestPaddedMatchesSprintf(t *testing.T) {
	for _, width := range []int{0, 1, 3, 4, 6} {
		for _, n := range []int{0, 1, 7, 9, 10, 99, 100, 999, 1000, 9999, 10000, 123456} {
			want := fmt.Sprintf("x-%0*d", width, n)
			if got := Padded("x-", n, width); got != want {
				t.Fatalf("Padded(x-, %d, %d) = %q, want %q", n, width, got, want)
			}
		}
	}
}

func TestPaddedAllocates(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() {
		_ = Padded("vm-", 4242, 4)
	}); allocs > 1 {
		t.Fatalf("Padded allocates %v objects per call, want <= 1", allocs)
	}
}

// TestParseAgainstSscanf checks Parse against fmt.Sscanf(id, "s-%d"), the
// parse it replaces: the two agree on every id Padded can mint, padded or
// not, up to the int range. Sscanf also accepts a sign, leading spaces and
// trailing bytes after the number; those are not ids, and Parse refuses
// them.
func TestParseAgainstSscanf(t *testing.T) {
	for _, c := range []struct {
		id     string
		n      int
		ok     bool
		sscanf bool // whether Sscanf reads a number from it
	}{
		{"s-001", 1, true, true},
		{"s-000", 0, true, true},
		{"s-7", 7, true, true},
		{"s-042", 42, true, true},
		{"s-999", 999, true, true},
		{"s-1000", 1000, true, true},
		{"s-0000123456", 123456, true, true},
		{"s-9223372036854775807", 9223372036854775807, true, true},
		{"s-9223372036854775808", 0, false, false},
		{"s-99999999999999999999", 0, false, false},
		{"s--5", 0, false, true},
		{"s-+5", 0, false, true},
		{"s- 5", 0, false, true},
		{"s-5x", 0, false, true},
		{"s-12.r1", 0, false, true},
		{"s-", 0, false, false},
		{"s-x", 0, false, false},
		{"", 0, false, false},
		{"s", 0, false, false},
		{"x-5", 0, false, false},
		{"S-5", 0, false, false},
	} {
		n, ok := Parse("s-", c.id)
		if n != c.n || ok != c.ok {
			t.Errorf("Parse(s-, %q) = %d, %v; want %d, %v", c.id, n, ok, c.n, c.ok)
		}
		var sn int
		_, err := fmt.Sscanf(c.id, "s-%d", &sn)
		if (err == nil) != c.sscanf {
			t.Errorf("Sscanf(%q): err %v, table says it reads a number: %v", c.id, err, c.sscanf)
		}
		if ok && sn != n {
			t.Errorf("Parse(s-, %q) = %d, Sscanf reads %d", c.id, n, sn)
		}
	}
	for _, n := range []int{0, 1, 9, 10, 999, 1000, 123456} {
		for _, width := range []int{0, 3, 6} {
			id := Padded("s-", n, width)
			if got, ok := Parse("s-", id); !ok || got != n {
				t.Errorf("Parse(s-, %q) = %d, %v; want %d, true", id, got, ok, n)
			}
		}
	}
}
