package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestDistMemo: claim enters a key once, set and get carry its
// distance, reset forgets every key, and growth past the initial size
// keeps every entry. Replaying a level's key sequence on a warm memo —
// reset, claims, sets, gets — allocates nothing, whatever the keys.
func TestDistMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]orientKey, 3000)
	for i := range keys {
		keys[i] = orientKey{rng.Int63n(41) - 20, rng.Int63n(41) - 20, rng.Int63n(41) - 20}
	}
	m := newDistMemo(100)
	level := func() {
		m.reset()
		for i, k := range keys {
			if m.claim(k) {
				m.set(k, float64(i))
			}
		}
	}
	level()
	first := map[orientKey]float64{}
	for i, k := range keys {
		if _, ok := first[k]; !ok {
			first[k] = float64(i)
		}
	}
	if m.n != len(first) {
		t.Fatalf("%d keys held, want %d distinct", m.n, len(first))
	}
	for k, d := range first {
		if got := m.get(k); got != d {
			t.Fatalf("key %v: distance %v, want %v (its first claim)", k, got, d)
		}
	}
	if d := m.get(orientKey{99, 99, 99}); !math.IsNaN(d) {
		t.Fatalf("unclaimed key reads %v, want NaN", d)
	}
	if a := testing.AllocsPerRun(5, level); a != 0 {
		t.Fatalf("replayed level allocates %v times, want 0", a)
	}
	m.reset()
	if !m.claim(keys[0]) || m.claim(keys[0]) || !math.IsNaN(m.get(keys[0])) {
		t.Fatal("after reset a key must claim once and read NaN until set")
	}
}
