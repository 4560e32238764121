// Package resultcache is the mediator's semantic result cache: a
// bounded, byte-budgeted LRU of materialized row sets keyed by the
// 128-bit incremental structural hash of the (sub)plan that produced
// them (internal/algebra). PR 5 cached *plans*; this caches *answers* —
// a repeated zipf-hot statement, or any query sharing a pushed-down
// submit subtree with one, is served from mediator memory instead of
// re-submitting to the wrappers.
//
// Correctness rests on one rule, the one the mediator's plan cache uses
// too: every entry carries the generation stamp its caller read when the
// execution that produced it *started*, and an entry is live only while
// that stamp still equals the caller's current generation. The mediator
// supplies its data generation, which advances on every registration,
// wrapper outage mark and catalog-touching feedback correction. A lookup
// that finds a dead entry evicts it; dead entries nobody looks up age out
// of the LRU. Because the stamp predates the work, an execution that
// raced an outage stores its rows already dead — they are never served.
// Partial answers are refused by the mediator and never offered by the
// engine, so a degraded run cannot seed the cache either.
//
// TTL runs on the shared virtual clock, so expiry is deterministic under
// the simulation like every other cost in the system.
//
// The zero Config disables the cache entirely (New returns nil, every
// method is nil-receiver-safe), preserving the bit-identical-when-
// disabled discipline of the feedback and fault subsystems.
package resultcache

import (
	"container/list"
	"sync"

	"disco/internal/algebra"
	"disco/internal/types"
)

// Defaults for enabled caches that leave a knob zero.
const (
	// DefaultEntries bounds the entry count when Config.Entries is 0.
	DefaultEntries = 1024
	// DefaultMaxBytes bounds the total materialized volume when
	// Config.MaxBytes is 0 (64 MiB of estimated row bytes).
	DefaultMaxBytes = 64 << 20
)

// HitFloorMS and HitPerRowMS price serving a cached result: a fixed
// in-memory lookup floor plus one touch per row. They are the ScopeCache
// cost rule of the blended hierarchy (core.ScopeCache, DESIGN.md §11):
// the optimizer prices a cache-hit access path with them, and the engine
// charges exactly the same formula to the virtual clock when it serves a
// hit — so the estimate is accurate by construction.
const (
	HitFloorMS  = 0.05
	HitPerRowMS = 0.0002
)

// HitCostMS is the ScopeCache pricing formula.
func HitCostMS(rows int64) float64 {
	return HitFloorMS + float64(rows)*HitPerRowMS
}

// Config sizes the cache. The zero value disables it.
type Config struct {
	// Enabled turns the cache on. Off by default: a disabled cache is
	// bit-identical to a build without the subsystem.
	Enabled bool
	// Entries bounds the number of cached results (0 = DefaultEntries).
	Entries int
	// MaxBytes budgets the total estimated row bytes held
	// (0 = DefaultMaxBytes). A single result larger than the budget is
	// never admitted.
	MaxBytes int64
	// TTLMS expires entries this many virtual milliseconds after
	// insertion (0 = no TTL).
	TTLMS float64
}

// Entry is one cached materialization.
type Entry struct {
	// Rows is the materialized result. Shared with every hit — callers
	// must never mutate rows served from the cache (the engine's row
	// operators never mutate their inputs, and sorts copy first).
	Rows   []types.Row
	Schema *types.Schema
	// Stamp is the generation read when the execution that produced the
	// result started; the entry is live while it equals the current one.
	Stamp uint64
	// Bytes is the estimated memory footprint charged to the budget.
	Bytes int64

	hash     algebra.Hash128
	storedMS float64
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits/Misses count lookups; Stale and Expired are the subsets of
	// misses that also evicted an entry (dead stamp, TTL). Like the plan
	// cache, a stale lookup counts as exactly one miss and one stale.
	Hits    int64
	Misses  int64
	Stale   int64
	Expired int64
	// Evictions counts entries displaced by the entry or byte budget.
	Evictions int64
	// Rejected counts refused inserts: results larger than the byte
	// budget.
	Rejected int64
	// Entries/Bytes are the live population and its charged volume. Dead
	// entries still awaiting eviction are not counted.
	Entries int
	Bytes   int64
}

// Cache is the semantic result cache. All methods are safe for
// concurrent use and safe on a nil receiver (the disabled state).
type Cache struct {
	mu  sync.Mutex
	cfg Config
	now func() float64 // virtual clock, for TTL

	lru   *list.List // of *Entry, front = most recent
	byKey map[algebra.Hash128]*list.Element
	bytes int64

	hits, misses, stale, expired int64
	evictions, rejected          int64
}

// New builds a cache, or returns nil when cfg.Enabled is false — the
// nil cache is the disabled subsystem and every method no-ops on it.
func New(cfg Config, now func() float64) *Cache {
	if !cfg.Enabled {
		return nil
	}
	if cfg.Entries <= 0 {
		cfg.Entries = DefaultEntries
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if now == nil {
		now = func() float64 { return 0 }
	}
	return &Cache{
		cfg:   cfg,
		now:   now,
		lru:   list.New(),
		byKey: make(map[algebra.Hash128]*list.Element, cfg.Entries),
	}
}

// Get returns the cached result for hash if its stamp equals gen, the
// caller's current generation, and it has not expired. Dead and
// TTL-expired entries are evicted on sight, each counting one miss plus
// its distinguishing counter.
func (c *Cache) Get(hash algebra.Hash128, gen uint64) (*Entry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[hash]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*Entry)
	if e.Stamp != gen {
		c.removeLocked(el)
		c.stale++
		c.misses++
		return nil, false
	}
	if c.cfg.TTLMS > 0 && c.now()-e.storedMS > c.cfg.TTLMS {
		c.removeLocked(el)
		c.expired++
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e, true
}

// Peek reports whether a live (current-stamp, unexpired) entry exists for
// hash without touching the counters, the LRU order, or stale entries.
// Cache warmers use it to decide whether a statement still needs to be
// executed; a Peek is invisible to the hit/miss accounting so warming
// does not distort the measured hit rate.
func (c *Cache) Peek(hash algebra.Hash128, gen uint64) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[hash]
	if !ok {
		return false
	}
	e := el.Value.(*Entry)
	if e.Stamp != gen {
		return false
	}
	if c.cfg.TTLMS > 0 && c.now()-e.storedMS > c.cfg.TTLMS {
		return false
	}
	return true
}

// Put stores a materialized result stamped with gen, which must be the
// generation read before the execution that produced rows started, and
// evicts least-recently-used entries until both budgets hold. Results
// larger than the byte budget are refused rather than flushing the whole
// cache. The rows slice is owned by the cache after Put — callers must
// not append to or mutate it.
func (c *Cache) Put(hash algebra.Hash128, rows []types.Row, schema *types.Schema, gen uint64, bytes int64) {
	if c == nil {
		return
	}
	if bytes <= 0 {
		bytes = ApproxBytes(rows)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if bytes > c.cfg.MaxBytes {
		c.rejected++
		return
	}
	if el, ok := c.byKey[hash]; ok {
		// Replace in place (a dead entry being refreshed).
		c.removeLocked(el)
		c.evictions--
	}
	for c.lru.Len() >= c.cfg.Entries || c.bytes+bytes > c.cfg.MaxBytes {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest)
	}
	e := &Entry{Rows: rows, Schema: schema, Stamp: gen, Bytes: bytes, hash: hash, storedMS: c.now()}
	c.byKey[hash] = c.lru.PushFront(e)
	c.bytes += bytes
}

// removeLocked unlinks one element and counts an eviction.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*Entry)
	c.lru.Remove(el)
	delete(c.byKey, e.hash)
	c.bytes -= e.Bytes
	c.evictions++
}

// Counters snapshots the cache statistics; Entries and Bytes count only
// the entries live under gen, the caller's current generation.
func (c *Cache) Counters(gen uint64) Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Hits: c.hits, Misses: c.misses, Stale: c.stale, Expired: c.expired,
		Evictions: c.evictions, Rejected: c.rejected,
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*Entry); e.Stamp == gen {
			s.Entries++
			s.Bytes += e.Bytes
		}
	}
	return s
}

// Snapshot is a frozen view of the cache for one plan search: the
// cardinalities of every entry live under a given generation at snapshot
// time. The optimizer prices cache-hit access paths against it
// (optimizer.Options.CacheView) — freezing keeps the parallel search
// deterministic, since a live view could answer two workers differently.
type Snapshot struct {
	rows map[algebra.Hash128]int64
}

// Lookup reports the cached cardinality of the plan with the given
// structural hash. The signature matches optimizer.CacheView.
func (s *Snapshot) Lookup(h algebra.Hash128) (int64, bool) {
	if s == nil {
		return 0, false
	}
	n, ok := s.rows[h]
	return n, ok
}

// SnapshotView freezes the entries live under gen and unexpired into a
// Snapshot. Returns nil when the cache is disabled or holds none (no
// CacheView — zero overhead on the search).
func (c *Cache) SnapshotView(gen uint64) *Snapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru.Len() == 0 {
		return nil
	}
	now := c.now()
	rows := make(map[algebra.Hash128]int64, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*Entry)
		if e.Stamp != gen {
			continue
		}
		if c.cfg.TTLMS > 0 && now-e.storedMS > c.cfg.TTLMS {
			continue
		}
		rows[e.hash] = int64(len(e.Rows))
	}
	if len(rows) == 0 {
		return nil
	}
	return &Snapshot{rows: rows}
}

// ApproxBytes estimates the memory footprint of a materialized result:
// per-row and per-value overheads plus the value payloads. It only needs
// to be proportional — the byte budget is a bound on growth, not an
// accounting of the allocator.
func ApproxBytes(rows []types.Row) int64 {
	const (
		rowOverhead = 48 // slice header + backing array slot amortized
		valOverhead = 16 // interface-ish constant header
	)
	var b int64
	for _, row := range rows {
		b += rowOverhead
		for _, v := range row {
			b += valOverhead
			if v.Kind() == types.KindString {
				b += int64(len(v.AsString()))
			} else {
				b += 8
			}
		}
	}
	return b
}
