package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/micrograph"
)

// readKey is the distance the memo holds for k, found by a probe of its
// own: NaN for a key never claimed, or claimed and not scored.
func readKey(m *distMemo, k orientKey) float64 {
	i, ok := m.find(k)
	if !ok {
		return math.NaN()
	}
	return m.dists[i]
}

// TestDistMemo: claim enters a key once and returns its slot, whose
// distance the caller writes and reads, reset forgets every key, and
// growth past the initial size keeps every entry. Replaying a level's
// key sequence on a warm memo — reset, claims, distances by slot —
// allocates nothing, whatever the keys.
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
			if slot, fresh := m.claim(k); fresh {
				m.dists[slot] = float64(i)
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
		if got := readKey(m, k); got != d {
			t.Fatalf("key %v: distance %v, want %v (its first claim)", k, got, d)
		}
		if slot, fresh := m.claim(k); fresh || m.dists[slot] != d {
			t.Fatalf("key %v: a second claim reads fresh %v, distance %v; want a held key at %v", k, fresh, m.dists[slot], d)
		}
	}
	if d := readKey(m, orientKey{99, 99, 99}); !math.IsNaN(d) {
		t.Fatalf("unclaimed key reads %v, want NaN", d)
	}
	if a := testing.AllocsPerRun(5, level); a != 0 {
		t.Fatalf("replayed level allocates %v times, want 0", a)
	}
	m.reset()
	if _, fresh := m.claim(keys[0]); !fresh || !math.IsNaN(readKey(m, keys[0])) {
		t.Fatal("after reset a key must claim fresh and read NaN until written")
	}
	if _, fresh := m.claim(keys[0]); fresh {
		t.Fatal("a key claimed twice must be fresh once")
	}
}

// TestDistMemoSameTable: the memo's hash is fixed, so the same key
// sequence — growths included — builds the same table, slot for slot,
// in two memos: whether a level grows, and where every distance lands,
// depends on its keys alone (a Go map's random seed made both vary).
func TestDistMemoSameTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := make([]orientKey, 2000)
	for i := range keys {
		keys[i] = orientKey{rng.Int63n(61) - 30, rng.Int63n(61) - 30, rng.Int63n(61) - 30}
	}
	a, b := newDistMemo(10), newDistMemo(10)
	for i, k := range keys {
		sa, fa := a.claim(k)
		sb, fb := b.claim(k)
		if sa != sb || fa != fb {
			t.Fatalf("claim %d of %v: slot %d fresh %v, then slot %d fresh %v", i, k, sa, fa, sb, fb)
		}
		if fa {
			a.dists[sa], b.dists[sb] = float64(i), float64(i)
		}
	}
	if a.gen == 0 {
		t.Fatal("the sequence never grew the table")
	}
	if a.gen != b.gen || len(a.keys) != len(b.keys) {
		t.Fatalf("growths %d and %d, tables of %d and %d slots", a.gen, b.gen, len(a.keys), len(b.keys))
	}
	for i := range a.keys {
		if a.keys[i] != b.keys[i] || math.Float64bits(a.dists[i]) != math.Float64bits(b.dists[i]) {
			t.Fatalf("slot %d: %v at %v, then %v at %v", i, a.keys[i], a.dists[i], b.keys[i], b.dists[i])
		}
	}
}

// TestSearchMemoOneProbe: a search probes the memo once per candidate.
// A flat-scan window claims each of its orientations once and the
// argmin reads the slots the claims returned, so a scan that slides s
// times probes (s+1)·w times for a window of w; a descent batch probes
// once per key. A memo that grows under a batch bumps its generation,
// and the batch finds its slots again: every distance still lands under
// its key, equal bit for bit to the distance at eulerOfKey's rotation.
func TestSearchMemoOneProbe(t *testing.T) {
	const l = 24
	dft, ds := testSetup(t, l, 1, micrograph.GenParams{Seed: 5})
	cfg := DefaultConfig(l)
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := ds.Views[0]
	pv, err := r.PrepareView(v.Image, v.CTF)
	if err != nil {
		t.Fatal(err)
	}
	n := len(r.m.band)
	for li, lv := range cfg.Schedule {
		sc := r.m.newScratch()
		sc.cache = newDistMemo(1 << 14) // no growth: count the search's own probes
		var st LevelStats
		start := v.TrueOrient.Add(geom.Euler{Theta: 3 * lv.RAngular, Phi: -2 * lv.RAngular, Omega: 4 * lv.RAngular})
		r.scanOrientations(pv.vd, start, lv, n, &st, sc)
		w := geom.CenteredWindow(start, lv.WindowHalf, lv.RAngular).Size()
		if want := int64((st.Slides + 1) * w); sc.cache.finds != want {
			t.Errorf("level %d: flat scan of %d windows of %d probed the memo %d times, want %d", li, st.Slides+1, w, sc.cache.finds, want)
		}
		if st.Slides == 0 && li == 0 {
			t.Errorf("level %d: the scan never slid; the start should be off the window's centre", li)
		}
	}

	// A descent batch, on a memo that grows half way through it.
	step := cfg.Schedule[1].RAngular
	sc := r.m.newScratch()
	sc.cache = newDistMemo(1) // 64 slots: grows at the 49th key
	sc.rot.use(step)
	base := keyOf(v.TrueOrient, step)
	sc.keys = sc.keys[:0]
	for i := range int64(100) {
		sc.keys = append(sc.keys, orientKey{base[0] + i%5, base[1] + i/5%5, base[2] + i/25})
	}
	sc.keys = append(sc.keys, sc.keys[3], sc.keys[60]) // duplicates claim once
	var st LevelStats
	gen := sc.cache.gen
	r.scoreLatticeKeys(pv.vd, n, &st, sc)
	if sc.cache.gen == gen {
		t.Fatal("the batch did not grow the memo")
	}
	if st.Matchings != 100 {
		t.Fatalf("%d matchings for 100 distinct keys", st.Matchings)
	}
	ref := r.m.newScratch()
	for i, k := range sc.keys {
		want := r.m.distance(pv.vd, eulerOfKey(k, step), n, ref)
		if got := sc.cache.dists[sc.keySlots[i]]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("key %d %v: slot %d holds %v, want %v", i, k, sc.keySlots[i], got, want)
		}
		if got := readKey(sc.cache, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("key %d %v: the memo holds %v under it, want %v", i, k, got, want)
		}
	}

	// Without growth, one probe per key.
	sc.cache.reset()
	finds := sc.cache.finds
	r.scoreLatticeKeys(pv.vd, n, &st, sc)
	if got := sc.cache.finds - finds; got != int64(len(sc.keys)) {
		t.Fatalf("a batch of %d keys probed the memo %d times, want one per key", len(sc.keys), got)
	}
}
