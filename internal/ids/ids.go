// Package ids formats the repo's zero-padded entity identifiers ("vm-0042",
// "gang-003.r1", "job-0007") without fmt. Sprintf's interface boxing and
// verb parsing dominated the per-session allocation profile of the serving
// benchmarks — every job, VM, and gang mints at least one ID — so the hot
// constructors build the string with one allocation instead. Parse reads
// the number back out of such an identifier, again without fmt.
package ids

import (
	"strconv"
	"strings"
)

// AppendPadded appends n in decimal to b, left-padded with zeros to width.
// Numbers wider than width print in full, matching fmt's %0*d. n must be
// non-negative.
func AppendPadded(b []byte, n, width int) []byte {
	var digits [20]byte
	i := pack(&digits, n)
	for pad := width - (len(digits) - i); pad > 0; pad-- {
		b = append(b, '0')
	}
	return append(b, digits[i:]...)
}

// WritePadded writes n zero-padded to width into sb; the builder variant of
// AppendPadded for callers composing an ID from several parts in one
// allocation.
func WritePadded(sb *strings.Builder, n, width int) {
	var digits [20]byte
	i := pack(&digits, n)
	for pad := width - (len(digits) - i); pad > 0; pad-- {
		sb.WriteByte('0')
	}
	sb.Write(digits[i:])
}

// Padded returns prefix followed by n zero-padded to width, equivalent to
// fmt.Sprintf(prefix+"%0*d", width, n) in one allocation.
func Padded(prefix string, n, width int) string {
	var digits [20]byte
	i := pack(&digits, n)
	nd := len(digits) - i
	pad := width - nd
	if pad < 0 {
		pad = 0
	}
	var sb strings.Builder
	sb.Grow(len(prefix) + pad + nd)
	sb.WriteString(prefix)
	for ; pad > 0; pad-- {
		sb.WriteByte('0')
	}
	sb.Write(digits[i:])
	return sb.String()
}

// pack renders n into the tail of digits and returns the first used index.
func pack(digits *[20]byte, n int) int {
	i := len(digits)
	for {
		i--
		digits[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			return i
		}
	}
}

// Parse returns the number in id when id is prefix followed by one or more
// decimal digits and nothing else (any zero padding), the inverse of
// Padded. A sign, a space, trailing bytes, no digits or a number past the
// int range report false.
func Parse(prefix, id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, prefix)
	if !ok || digits == "" || digits[0] < '0' || digits[0] > '9' {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil {
		return 0, false
	}
	return n, true
}
