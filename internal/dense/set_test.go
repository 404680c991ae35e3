package dense

import (
	"math/rand"
	"testing"
)

// TestSetMatchesMap drives a Set and a map[int]bool reference through
// random Add/Contains/Reset sequences. n grows and shrinks across
// resets so capacity is reused, and probes include the padding bits of
// the last word, negative ids and ids >= n.
func TestSetMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 63, 64, 65, 200, 127, 128, 129, 10_000, 5, 640, 641, 3}
	var s Set
	for round := 0; round < 200; round++ {
		n := sizes[r.Intn(len(sizes))]
		if r.Intn(4) == 0 {
			n = r.Intn(1000)
		}
		s.Reset(n)
		ref := map[int]bool{}
		check := func(id int) {
			t.Helper()
			if got := s.Contains(id); got != ref[id] {
				t.Fatalf("round %d n=%d: Contains(%d) = %v, want %v", round, n, id, got, ref[id])
			}
		}
		padEnd := (n + 63) &^ 63
		for op := 0; op < 300; op++ {
			switch r.Intn(3) {
			case 0:
				if n > 0 {
					id := r.Intn(n)
					s.Add(id)
					ref[id] = true
				}
			case 1:
				if n > 0 {
					check(r.Intn(n))
				}
			case 2:
				// Out-of-range probes: padding bits, negatives, >= n.
				check(n + r.Intn(padEnd-n+1))
				check(-1 - r.Intn(100))
				check(n + r.Intn(1000))
			}
			if s.Len() != len(ref) {
				t.Fatalf("round %d n=%d: Len = %d, want %d", round, n, s.Len(), len(ref))
			}
		}
		for id := -2; id < padEnd+66; id++ {
			check(id)
		}
	}
}

func TestZeroValueSet(t *testing.T) {
	var s Set
	if s.Len() != 0 {
		t.Fatalf("zero Len = %d", s.Len())
	}
	for _, id := range []int{-1, 0, 1, 63, 64} {
		if s.Contains(id) {
			t.Fatalf("zero set Contains(%d)", id)
		}
	}
	s.Reset(10)
	s.Add(9)
	if !s.Contains(9) || s.Len() != 1 {
		t.Fatalf("after Reset(10)+Add(9): Contains=%v Len=%d", s.Contains(9), s.Len())
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	var s Set
	s.Reset(70) // two words; ids 70..127 are padding
	for _, id := range []int{-1, 70, 127, 128, 1 << 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) over [0, 70) did not panic", id)
				}
			}()
			s.Add(id)
		}()
	}
	if s.Len() != 0 {
		t.Fatalf("Len after rejected adds = %d", s.Len())
	}
}

func TestSetZeroAllocs(t *testing.T) {
	var s Set
	s.Reset(10_000)
	id := 0
	if a := testing.AllocsPerRun(100, func() {
		s.Add(id)
		_ = s.Contains(id + 1)
		id = (id + 97) % 10_000
	}); a != 0 {
		t.Fatalf("Add/Contains allocate %.1f per run, want 0", a)
	}
	n := 10_000
	if a := testing.AllocsPerRun(100, func() {
		s.Reset(n)
		n = 10_000 - n%7 // shrink and regrow within capacity
	}); a != 0 {
		t.Fatalf("Reset within capacity allocates %.1f per run, want 0", a)
	}
}
