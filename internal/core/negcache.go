package core

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// negCacheSize bounds the negative-containment cache.
const negCacheSize = 4096

// negCache is the bounded, repository-wide memo of failed containment
// tests: the claim protocol's re-rewrites of an unchanged plan, and
// fleets of near-identical submissions — dashboards re-running the same
// script — re-test the same entries against the same job fingerprints,
// and skip the traversals already paid for.
//
// A key pairs one entry *version* (entries are immutable; replacement
// swaps a fresh pointer) with one job-plan fingerprint (a pure function
// of the plan), so a cached rejection can never suppress a live match,
// and an evicted key is only traversed and rejected again. Replacement
// and removal still invalidate eagerly so the bounded capacity is not
// wasted on dead entries.
//
// The structure is an LRU over container/list.
type negCache struct {
	mu    sync.Mutex
	cap   int
	nodes map[negKey]*list.Element
	// byEntry indexes keys by entry for O(keys-of-entry) invalidation.
	byEntry map[*Entry]map[string]struct{}
	lru     *list.List // front = most recently used; evictions pop the back

	hits      atomic.Int64
	evictions atomic.Int64
}

func newNegCache(capacity int) *negCache {
	return &negCache{
		cap:     capacity,
		nodes:   map[negKey]*list.Element{},
		byEntry: map[*Entry]map[string]struct{}{},
		lru:     list.New(),
	}
}

// lookup reports whether the rejection is cached, refreshing its
// recency on a hit.
func (c *negCache) lookup(k negKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.nodes[k]
	if el == nil {
		return false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return true
}

// add caches a rejection, evicting the least recently used one when the
// cache is full.
func (c *negCache) add(k negKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.nodes[k]; el != nil {
		c.lru.MoveToFront(el)
		return
	}
	c.nodes[k] = c.lru.PushFront(k)
	fps := c.byEntry[k.entry]
	if fps == nil {
		fps = map[string]struct{}{}
		c.byEntry[k.entry] = fps
	}
	fps[k.jobFP] = struct{}{}
	for len(c.nodes) > c.cap {
		c.removeLocked(c.lru.Back().Value.(negKey))
		c.evictions.Add(1)
	}
}

// invalidate drops every cached rejection of the entry — called under
// the repository lock when an entry is replaced or removed.
func (c *negCache) invalidate(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for fp := range c.byEntry[e] {
		c.removeLocked(negKey{entry: e, jobFP: fp})
	}
}

// removeLocked unlinks and deletes one key (mu held).
func (c *negCache) removeLocked(k negKey) {
	el := c.nodes[k]
	if el == nil {
		return
	}
	c.lru.Remove(el)
	delete(c.nodes, k)
	if fps := c.byEntry[k.entry]; fps != nil {
		delete(fps, k.jobFP)
		if len(fps) == 0 {
			delete(c.byEntry, k.entry)
		}
	}
}

// stats snapshots the cache counters for MatcherStats.
func (c *negCache) stats() (hits, evictions int64, size int) {
	c.mu.Lock()
	size = len(c.nodes)
	c.mu.Unlock()
	return c.hits.Load(), c.evictions.Load(), size
}
