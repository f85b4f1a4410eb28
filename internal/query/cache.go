package query

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultSolveCacheSize is the solve-cache capacity servers use unless
// configured otherwise, measured in cached rollups (result groups): a
// plain key or prefix selection weighs 1, a group-by or sliding-window
// selection weighs one per group, so high-cardinality selections cannot
// blow past the configured memory bound by hiding behind one entry. A
// solved rollup is a ~200-byte sketch plus a few-KiB density, so the
// default bounds the cache to a few MiB.
const DefaultSolveCacheSize = 1024

// CacheStats is a point-in-time snapshot of the solve cache's counters,
// surfaced through Engine.CacheStats and the server's stats endpoints.
// Capacity and Groups are in rollup units (see DefaultSolveCacheSize);
// Entries counts cached selections.
type CacheStats struct {
	Enabled   bool   `json:"enabled"`
	Capacity  int    `json:"capacity"`
	Entries   int    `json:"entries"`
	Groups    int    `json:"groups"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// solveCache is a sharded, bounded LRU from version-stamped selection keys
// to resolved group sets (merged rollup sketches plus their lazily solved
// maximum-entropy densities). Keys embed the store's mutation version (see
// Engine.cacheKey), so invalidation is structural: any mutation of covered
// data changes the key and the stale entry simply ages out of the LRU.
// Cached groups are immutable apart from the sync.Once-guarded solve —
// newGroup compacts lazily buffered backends (sketch.Compactor) before a
// group can reach the cache — so one entry can serve concurrent requests.
type solveCache struct {
	shards    []cacheShard
	mask      uint64
	capacity  int
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type cacheShard struct {
	mu     sync.Mutex
	cap    int // weight budget (rollups)
	weight int // current total weight
	m      map[string]*list.Element
	ll     *list.List // front = most recently used
}

type cacheRecord struct {
	key    string
	groups []*group
	weight int
}

// newSolveCache builds a cache whose shard budgets sum to exactly
// `capacity` rollups, split over power-of-two shards.
func newSolveCache(capacity int) *solveCache {
	if capacity <= 0 {
		return nil
	}
	shards := 1
	for shards < 8 && shards < capacity {
		shards <<= 1
	}
	c := &solveCache{
		shards:   make([]cacheShard, shards),
		mask:     uint64(shards - 1),
		capacity: capacity,
	}
	base, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		cap := base
		if i < extra {
			cap++
		}
		c.shards[i] = cacheShard{
			cap: cap,
			m:   make(map[string]*list.Element),
			ll:  list.New(),
		}
	}
	return c
}

// fnv64aString mirrors shard's key hash for shard selection.
func fnv64aString(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (c *solveCache) shardFor(key string) *cacheShard {
	return &c.shards[fnv64aString(key)&c.mask]
}

// get returns the group set cached under key, promoting it to most
// recently used.
func (c *solveCache) get(key string) ([]*group, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	el, ok := sh.m[key]
	var groups []*group
	if ok {
		sh.ll.MoveToFront(el)
		// Read under the lock: a concurrent put refreshes rec.groups in place.
		groups = el.Value.(*cacheRecord).groups
	}
	sh.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return groups, true
}

// put inserts (or refreshes) the group set under key, evicting least
// recently used entries until the shard's rollup budget holds. A group set
// heavier than the whole shard budget is not cached at all — caching it
// would flush the shard for an entry too big to ever be joined by another.
func (c *solveCache) put(key string, groups []*group) {
	w := len(groups)
	if w < 1 {
		w = 1
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	if w > sh.cap {
		sh.mu.Unlock()
		return
	}
	if el, ok := sh.m[key]; ok {
		rec := el.Value.(*cacheRecord)
		sh.weight += w - rec.weight
		rec.groups, rec.weight = groups, w
		sh.ll.MoveToFront(el)
	} else {
		sh.m[key] = sh.ll.PushFront(&cacheRecord{key: key, groups: groups, weight: w})
		sh.weight += w
	}
	evicted := uint64(0)
	for sh.weight > sh.cap {
		back := sh.ll.Back()
		rec := back.Value.(*cacheRecord)
		sh.ll.Remove(back)
		delete(sh.m, rec.key)
		sh.weight -= rec.weight
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// stats snapshots the counters.
func (c *solveCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	entries, groups := 0, 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		entries += sh.ll.Len()
		groups += sh.weight
		sh.mu.Unlock()
	}
	return CacheStats{
		Enabled:   true,
		Capacity:  c.capacity,
		Entries:   entries,
		Groups:    groups,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}
