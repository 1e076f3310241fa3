// Package obs is the project's zero-dependency instrumentation layer:
// atomic counters, power-of-two-bucket histograms, and a simulated-clock
// span trace (trace.go). It is built for the repo's determinism
// contract — instruments only ever *read* the per-rank clocks of the
// simulated cluster's ledger and bump atomics, so enabling full
// instrumentation leaves refinement output and simulated timings
// bit-identical (asserted in internal/core, internal/parfft and
// internal/workload tests).
//
// Cost model: every instrument call starts with one atomic load of the
// global enabled flag and returns immediately when it is false, so the
// disabled path compiles to near-nothing. The enabled path is a single
// atomic add per counter bump; spans come from a sync.Pool so the hot
// path stays alloc-free (proved by BenchmarkSpanDisabled/Enabled).
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled gates counters and histograms globally. The trace has its own
// activation (an atomic pointer to the active Trace) so that -trace can
// run without -metrics and vice versa; benchutil turns both on.
var enabled atomic.Bool

// SetEnabled turns metric collection on or off and returns the previous
// state, so tests can restore it.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Enabled reports whether metric collection is on.
func Enabled() bool { return enabled.Load() }

// registry holds every instrument ever constructed. Instruments are
// package-level vars, so construction is init-time only; the mutex is
// never touched on the hot path.
var registry struct {
	sync.Mutex
	names map[string]bool
	insts []instrument
}

type instrument interface {
	// snapshot appends the instrument's current values, one Metric per
	// exported series, in a deterministic order.
	snapshot([]Metric) []Metric
	// reset zeroes the instrument.
	reset()
}

func register(name string, inst instrument) {
	registry.Lock()
	defer registry.Unlock()
	if registry.names == nil {
		registry.names = make(map[string]bool)
	}
	if registry.names[name] {
		panic("obs: duplicate instrument name " + name)
	}
	registry.names[name] = true
	registry.insts = append(registry.insts, inst)
}

// Metric is one exported series value in a snapshot.
type Metric struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot returns every registered series sorted by name. Values are
// read with atomic loads; concurrent bumps may land between reads of
// different series, which is fine — snapshots are for reporting, not
// for the determinism contract.
func Snapshot() []Metric {
	registry.Lock()
	insts := make([]instrument, len(registry.insts))
	copy(insts, registry.insts)
	registry.Unlock()
	var ms []Metric
	for _, in := range insts {
		ms = in.snapshot(ms)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return ms
}

// Values returns the snapshot as a name→value map, for tests that want
// delta assertions around a code region.
func Values() map[string]int64 {
	ms := Snapshot()
	m := make(map[string]int64, len(ms))
	for _, mt := range ms {
		m[mt.Name] = mt.Value
	}
	return m
}

// ResetAll zeroes every registered instrument.
func ResetAll() {
	registry.Lock()
	insts := make([]instrument, len(registry.insts))
	copy(insts, registry.insts)
	registry.Unlock()
	for _, in := range insts {
		in.reset()
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// NewCounter registers a counter. Call from package-level var
// initialisers only; duplicate names panic.
func NewCounter(name string) *Counter {
	c := &Counter{name: name}
	register(name, c)
	return c
}

// Inc adds 1 when instrumentation is enabled.
func (c *Counter) Inc() {
	if !enabled.Load() {
		return
	}
	c.v.Add(1)
}

// Add adds n when instrumentation is enabled.
func (c *Counter) Add(n int64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) snapshot(ms []Metric) []Metric {
	return append(ms, Metric{Name: c.name, Value: c.v.Load()})
}

func (c *Counter) reset() { c.v.Store(0) }

// CounterVec is a fixed-width vector of counters over a small closed
// set of alternatives — which kernel, which outcome — indexed by the
// alternative's position. Cell i exports as name{label=values[i]}, so
// an operator reading /metrics needs no source to decode a cell;
// out-of-range indexes clamp to the last cell so callers never need a
// bounds check on the hot path.
type CounterVec struct {
	name  string
	cells []atomic.Int64
	// label and values name the cells (values[i] for cell i).
	label  string
	values []string
}

// NewLabeledCounterVec registers a counter vector whose cell i exports
// as name{label=values[i]} (Prometheus: name{label="values[i]"}).
func NewLabeledCounterVec(name, label string, values ...string) *CounterVec {
	if len(values) == 0 {
		panic("obs: CounterVec needs at least one cell: " + name)
	}
	v := &CounterVec{name: name, cells: make([]atomic.Int64, len(values)), label: label, values: values}
	register(name, v)
	return v
}

// Inc adds 1 to cell i when instrumentation is enabled.
func (v *CounterVec) Inc(i int) { v.Add(i, 1) }

// Add adds n to cell i when instrumentation is enabled.
func (v *CounterVec) Add(i int, n int64) {
	if !enabled.Load() {
		return
	}
	if i < 0 {
		i = 0
	} else if i >= len(v.cells) {
		i = len(v.cells) - 1
	}
	v.cells[i].Add(n)
}

// Value returns the current count of cell i (clamped like Add).
func (v *CounterVec) Value(i int) int64 {
	if i < 0 {
		i = 0
	} else if i >= len(v.cells) {
		i = len(v.cells) - 1
	}
	return v.cells[i].Load()
}

// Total returns the sum across all cells.
func (v *CounterVec) Total() int64 {
	var t int64
	for i := range v.cells {
		t += v.cells[i].Load()
	}
	return t
}

func (v *CounterVec) snapshot(ms []Metric) []Metric {
	for i := range v.cells {
		ms = append(ms, Metric{Name: v.cellName(i), Value: v.cells[i].Load()})
	}
	return ms
}

func (v *CounterVec) reset() {
	for i := range v.cells {
		v.cells[i].Store(0)
	}
}

// cellName is the snapshot name of cell i.
func (v *CounterVec) cellName(i int) string {
	return v.name + "{" + v.label + "=" + v.values[i] + "}"
}

// vecName formats name[i] — a histogram bucket's series name — without
// fmt (snapshot only, but keeping obs free of fmt keeps the package
// lean).
func vecName(name string, i int) string {
	digits := [20]byte{}
	p := len(digits)
	if i == 0 {
		p--
		digits[p] = '0'
	}
	for i > 0 {
		p--
		digits[p] = byte('0' + i%10)
		i /= 10
	}
	return name + "[" + string(digits[p:]) + "]"
}

// Gauge is a current-value instrument: unlike a Counter it moves in
// both directions and exports its instantaneous value, so it models
// occupancy (queue depth, running jobs, journal bytes) rather than
// throughput. Same cost contract as the other instruments: one atomic
// load on the disabled path, one atomic store/add when enabled.
type Gauge struct {
	name string
	v    atomic.Int64
}

// NewGauge registers a gauge. Call from package-level var initialisers
// only; duplicate names panic.
func NewGauge(name string) *Gauge {
	g := &Gauge{name: name}
	register(name, g)
	return g
}

// Set stores the current value when instrumentation is enabled.
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by n (n may be negative) when instrumentation is
// enabled.
func (g *Gauge) Add(n int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(n)
}

// Inc adds 1 when instrumentation is enabled.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1 when instrumentation is enabled.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) snapshot(ms []Metric) []Metric {
	return append(ms, Metric{Name: g.name, Value: g.v.Load()})
}

func (g *Gauge) reset() { g.v.Store(0) }

// Histogram records a distribution in power-of-two buckets: bucket k
// counts observations v with 2^(k-1) <= v < 2^k (bucket 0 counts v <= 0
// and v == 1 lands in bucket 1). It also tracks count and sum so means
// survive the bucketing.
type Histogram struct {
	name    string
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// NewHistogram registers a histogram with the given number of
// power-of-two buckets; observations beyond the last bucket clamp.
func NewHistogram(name string, buckets int) *Histogram {
	if buckets <= 0 {
		panic("obs: Histogram needs at least one bucket: " + name)
	}
	h := &Histogram{name: name, buckets: make([]atomic.Int64, buckets)}
	register(name, h)
	return h
}

// Observe records one observation when instrumentation is enabled.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	k := 0
	if v > 0 {
		k = bits.Len64(uint64(v))
		if k >= len(h.buckets) {
			k = len(h.buckets) - 1
		}
	}
	h.buckets[k].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

func (h *Histogram) snapshot(ms []Metric) []Metric {
	ms = append(ms,
		Metric{Name: h.name + ".count", Value: h.count.Load()},
		Metric{Name: h.name + ".sum", Value: h.sum.Load()},
	)
	for i := range h.buckets {
		ms = append(ms, Metric{Name: vecName(h.name+".bucket", i), Value: h.buckets[i].Load()})
	}
	return ms
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Buckets returns a snapshot copy of the per-bucket counts.
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded
// distribution by linear interpolation inside the power-of-two bucket
// that holds the target rank. With no observations it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	return QuantileFromBuckets(h.Buckets(), q)
}

// BucketBounds returns the value range [lo, hi) that bucket k of a
// power-of-two histogram covers: bucket 0 holds v <= 0, bucket k >= 1
// holds 2^(k-1) <= v < 2^k. Exported so clients that reconstruct
// histograms from exported series (repstat, the prom exposition) agree
// with the in-process estimator about bucket geometry.
func BucketBounds(k int) (lo, hi float64) {
	if k <= 0 {
		return 0, 0
	}
	return float64(int64(1) << (k - 1)), float64(int64(1) << k)
}

// QuantileFromBuckets is the bucket-interpolated quantile estimator
// over a power-of-two bucket vector (the exact series a Histogram
// exports as name.bucket[k]). It is the single implementation behind
// Histogram.Quantile and the client-side quantiles in cmd/repstat, so
// the two always agree.
func QuantileFromBuckets(buckets []int64, q float64) float64 {
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for k, c := range buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := BucketBounds(k)
			frac := 0.0
			if c > 0 {
				frac = (rank - cum) / float64(c)
			}
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum += float64(c)
	}
	// rank beyond the last populated bucket (only reachable through
	// floating-point edge cases): the last bucket's upper bound.
	_, hi := BucketBounds(len(buckets) - 1)
	return hi
}
