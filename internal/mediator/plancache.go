package mediator

import (
	"container/list"
	"strings"
	"sync"
	"unicode"
)

// DefaultPlanCacheSize bounds the prepared-plan cache when
// Config.PlanCacheSize is zero.
const DefaultPlanCacheSize = 256

// stamp is the pair of model generations a cached artifact was built
// under (see Mediator.dataGen and Mediator.costGen).
type stamp struct{ data, cost uint64 }

// planCache is a bounded LRU of prepared plans keyed by normalized SQL.
// Every entry carries the stamp read before its plan was built; a lookup
// under a different stamp evicts the entry instead of returning it, so
// any change to the model the plan was costed against — registration,
// outage, feedback correction — retires it. Dead entries nobody looks up
// age out of the LRU. The cache has its own mutex — it is touched from
// the read-locked query path, where the mediator's big lock admits many
// goroutines at once.
type planCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // of *planEntry, front = most recent
	byKey map[string]*list.Element

	hits   int64
	misses int64
	stale  int64 // misses that found a dead entry
}

type planEntry struct {
	key string
	p   *Prepared
	s   stamp
}

// newPlanCache returns a cache bounded to capacity entries, or nil when
// capacity is negative (caching disabled).
func newPlanCache(capacity int) *planCache {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = DefaultPlanCacheSize
	}
	return &planCache{
		cap:   capacity,
		lru:   list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached plan for key if it was prepared under stamp s.
// Dead entries are evicted on sight.
func (c *planCache) get(key string, s stamp) (*Prepared, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*planEntry)
	if e.s != s {
		c.lru.Remove(el)
		delete(c.byKey, key)
		c.stale++
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e.p, true
}

// put stores a prepared plan under stamp s, which must have been read
// before planning started, evicting the least recently used entry at
// capacity. Cached Prepared values are shared across goroutines and must
// never be mutated after insertion.
func (c *planCache) put(key string, p *Prepared, s stamp) {
	if c == nil || key == "" || p == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*planEntry)
		e.p, e.s = p, s
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		if oldest != nil {
			delete(c.byKey, oldest.Value.(*planEntry).key)
			c.lru.Remove(oldest)
		}
	}
	c.byKey[key] = c.lru.PushFront(&planEntry{key: key, p: p, s: s})
}

// len reports the number of cached plans live under stamp s.
func (c *planCache) len(s stamp) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*planEntry).s == s {
			n++
		}
	}
	return n
}

// counters snapshots the hit/miss/stale counters.
func (c *planCache) counters() (hits, misses, stale int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.stale
}

// NormalizeSQL collapses whitespace runs to single spaces and trims the
// statement, so formatting variants of one query share a cache entry.
// Case is preserved: keywords are case-insensitive but string constants
// are not, and a cosmetic miss is cheaper than a wrong hit.
//
// Quoted string literals pass through verbatim: collapsing whitespace
// inside them would key `WHERE name = 'a  b'` and `WHERE name = 'a b'`
// to the same cache entry and serve one query's plan — with the wrong
// constant baked in — for the other. The literal rules mirror the
// lexer's (internal/sqlparser): ' or " opens a literal, the matching
// quote closes it, and there is no escape mechanism (the other quote
// character is ordinary content). An unterminated literal runs to the
// end of the statement, exactly as the lexer consumes it, so the
// trailing trim is skipped rather than amputating literal content.
//
// Exported because the federation router keys its consistent-hash ring
// on the same plan identity the replica caches use: routing a statement
// by NormalizeSQL pins each prepared plan (and its cached result) to one
// replica's caches.
func NormalizeSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	space := false
	var quote rune // 0 = outside any literal
	for _, r := range sql {
		if quote != 0 {
			b.WriteRune(r)
			if r == quote {
				quote = 0
			}
			continue
		}
		if unicode.IsSpace(r) {
			space = true
			continue
		}
		if space && b.Len() > 0 {
			b.WriteByte(' ')
		}
		space = false
		if r == '\'' || r == '"' {
			quote = r
		}
		b.WriteRune(r)
	}
	if quote != 0 {
		return b.String()
	}
	return strings.TrimRight(b.String(), " ;")
}
