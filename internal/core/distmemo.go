package core

import (
	"math"
	"math/bits"
)

// distMemo is one worker's per-level distance memo: every orientation
// key the level's search has claimed since the level (or its last
// large centre shift) began, with its distance — NaN while claimed and
// not yet scored. It is an open-addressing table with linear probing
// and a fixed hash, so one sequence of keys always builds the same
// table. A Go map could not promise that: its hash seed is random and
// clear draws a new one, so whether the same keys made it grow — and
// allocate inside the search — varied from run to run.
//
// The table starts with room for one search window of the schedule
// (Config.windowKeys) and doubles when it would pass three-quarters
// full. Whether it grows depends only on the keys, so a level that has
// run once never grows on a replay, and a worker's table settles at
// the size of the largest level it has run. reset empties it in place.
type distMemo struct {
	keys  []orientKey
	dists []float64
	used  []uint64 // bit i set: slot i holds a key
	n     int      // used slots
	shift uint     // 64 − log2(len(keys)): the hash's top bits index a slot
}

// newDistMemo allocates a memo for at least n keys before it grows.
func newDistMemo(n int) *distMemo {
	m := &distMemo{}
	m.alloc(max(n+n/3+1, 64))
	return m
}

// alloc replaces the table with an empty one of the next power of two
// ≥ size slots.
func (m *distMemo) alloc(size int) {
	b := bits.Len(uint(size - 1))
	m.keys = make([]orientKey, 1<<b)
	m.dists = make([]float64, 1<<b)
	m.used = make([]uint64, (1<<b+63)/64)
	m.shift = uint(64 - b)
	m.n = 0
}

// reset forgets every key.
func (m *distMemo) reset() {
	if m.n > 0 {
		clear(m.used)
		m.n = 0
	}
}

// find returns the slot that holds k, or the empty slot where k would
// go, and whether k is there.
func (m *distMemo) find(k orientKey) (int, bool) {
	h := uint64(k[0])*0x9e3779b97f4a7c15 ^ uint64(k[1])*0xc2b2ae3d27d4eb4f ^ uint64(k[2])*0x165667b19e3779f9
	mask := len(m.keys) - 1
	i := int((h*0xff51afd7ed558ccd)>>m.shift) & mask
	for m.used[i>>6]&(1<<(i&63)) != 0 {
		if m.keys[i] == k {
			return i, true
		}
		i = (i + 1) & mask
	}
	return i, false
}

// claim enters k with a NaN distance and reports true, or reports false
// if k is already in the memo.
func (m *distMemo) claim(k orientKey) bool {
	i, ok := m.find(k)
	if ok {
		return false
	}
	if 4*(m.n+1) > 3*len(m.keys) {
		m.grow()
		i, _ = m.find(k)
	}
	m.put(i, k, math.NaN())
	return true
}

func (m *distMemo) put(i int, k orientKey, d float64) {
	m.keys[i], m.dists[i] = k, d
	m.used[i>>6] |= 1 << (i & 63)
	m.n++
}

// grow doubles the table and re-enters every key.
func (m *distMemo) grow() {
	keys, dists, used := m.keys, m.dists, m.used
	m.alloc(2 * len(keys))
	for i, k := range keys {
		if used[i>>6]&(1<<(i&63)) != 0 {
			j, _ := m.find(k)
			m.put(j, k, dists[i])
		}
	}
}

// set records the distance of a claimed key.
func (m *distMemo) set(k orientKey, d float64) {
	i, _ := m.find(k)
	m.dists[i] = d
}

// get returns the distance of key k: NaN while it is claimed and not
// scored, and for a key never claimed.
func (m *distMemo) get(k orientKey) float64 {
	i, ok := m.find(k)
	if !ok {
		return math.NaN()
	}
	return m.dists[i]
}
