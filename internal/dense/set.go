// Package dense provides a bitset membership set over a fixed integer
// ID range [0, n).
//
// Membership is one bit per ID, so a set over n IDs costs ⌈n/64⌉ words:
// the per-story voter and Friends-interface audience sets of thousands
// of live stories fit in a few MB. A Set is not safe for concurrent use.
package dense

// Set is a dense bitset membership set. The zero value is an empty set
// over an empty range; call Reset to size it.
type Set struct {
	words []uint64
	n     int
	count int
}

// Reset empties the set and (re)sizes it to cover [0, n). Existing
// capacity is reused; only the ⌈n/64⌉ words in range are cleared.
func (s *Set) Reset(n int) {
	if w := (n + 63) >> 6; cap(s.words) < w {
		s.words = make([]uint64, w)
	} else {
		s.words = s.words[:w]
		clear(s.words)
	}
	s.n, s.count = n, 0
}

// Contains reports whether id is a member. IDs outside [0, n) are
// simply non-members.
func (s *Set) Contains(id int) bool {
	return uint(id) < uint(s.n) && s.words[id>>6]&(1<<(id&63)) != 0
}

// Add inserts id. It is idempotent. id must be inside [0, n).
func (s *Set) Add(id int) {
	if uint(id) >= uint(s.n) {
		panic("dense: Add id out of range")
	}
	if w, b := &s.words[id>>6], uint64(1)<<(id&63); *w&b == 0 {
		*w |= b
		s.count++
	}
}

// Len returns the number of members.
func (s *Set) Len() int { return s.count }
