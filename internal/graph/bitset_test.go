package graph

import (
	"math/rand/v2"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Count() != 0 {
		t.Fatal("fresh bitset not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("Set(%d) not visible", i)
		}
	}
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
	b.Unset(64)
	if b.Get(64) {
		t.Fatal("Unset(64) not visible")
	}
	b.Set(64)
	b.Unset(65)
	if !b.Get(64) || b.Get(65) {
		t.Fatal("Set/Unset misbehaved")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset left bits")
	}

	r := rand.New(rand.NewPCG(7, 7))
	ref := make([]bool, 517)
	b = NewBitset(len(ref))
	count := 0
	for i := range ref {
		if r.Uint64()&1 == 1 {
			ref[i] = true
			b.Set(i)
			count++
		}
	}
	for i := range ref {
		if b.Get(i) != ref[i] {
			t.Fatalf("Get(%d) = %v, want %v", i, b.Get(i), ref[i])
		}
	}
	if b.Count() != count {
		t.Fatalf("Count = %d, want %d", b.Count(), count)
	}
}

func TestBitsetSetFirst(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		b := NewBitset(130)
		b.Set(129) // stale bit that SetFirst must clear when n <= 129
		b.SetFirst(n)
		if got := b.Count(); got != n {
			t.Fatalf("SetFirst(%d): Count = %d", n, got)
		}
		for i := 0; i < 130; i++ {
			if b.Get(i) != (i < n) {
				t.Fatalf("SetFirst(%d): Get(%d) = %v", n, i, b.Get(i))
			}
		}
	}
}
