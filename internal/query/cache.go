package query

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/maxent"
)

// DefaultSolveCacheSize is the solve-cache capacity servers use unless
// configured otherwise, in cached solves (one rollup each). A cached solve
// is a ~200-byte key plus a few-KiB density, so the default bounds the
// cache to a few MiB.
const DefaultSolveCacheSize = 1024

// CacheStats is a point-in-time snapshot of the solve cache's counters,
// surfaced through Engine.CacheStats and the server's stats endpoints.
// Capacity and Entries count cached solves; Hits and Misses count solve
// lookups, one per rollup whose density an aggregation needed.
type CacheStats struct {
	Enabled   bool   `json:"enabled"`
	Capacity  int    `json:"capacity"`
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// solveCache is a sharded, bounded LRU from a solve's exact inputs to its
// outcome. maxent.SolveSketch reads nothing but the moment vector and the
// warm seed, so the key is the vector's marshaled bytes followed by the
// seed's bits (solveKey), and a hit returns what a fresh solve of the same
// inputs would, bit for bit. No entry can go stale: new data makes a new
// vector, hence a new key, and entries nobody asks for age out. Go's map
// compares whole string keys, so there is no collision path either. Cached
// solutions are immutable and shared by concurrent requests.
type solveCache struct {
	shards    []cacheShard
	mask      uint64
	capacity  int
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type cacheShard struct {
	mu  sync.Mutex
	cap int // entry budget
	m   map[string]*list.Element
	ll  *list.List // front = most recently used
}

type cacheRecord struct {
	key string
	sol *maxent.Solution
	err error
}

// newSolveCache builds a cache whose shard budgets sum to exactly
// `capacity` entries, split over power-of-two shards.
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

// solve returns maxent.SolveSketch(sk, opts), from the cache when the same
// inputs were solved before; hit reports that. A nil cache always solves.
func (c *solveCache) solve(sk *core.Sketch, opts maxent.Options) (sol *maxent.Solution, hit bool, err error) {
	if c == nil {
		sol, err = maxent.SolveSketch(sk, opts)
		return sol, false, err
	}
	key := solveKey(sk, opts.Theta0)
	if rec, ok := c.get(key); ok {
		return rec.sol, true, rec.err
	}
	sol, err = maxent.SolveSketch(sk, opts)
	c.put(&cacheRecord{key: key, sol: sol, err: err})
	return sol, false, err
}

// solveKey is the solver's whole input: the moment vector as
// encoding.Marshal lays it out (every core.Sketch field, fixed length for
// the order in its header) followed by the warm seed's bits.
func solveKey(sk *core.Sketch, theta0 []float64) string {
	b := encoding.Marshal(sk)
	for _, v := range theta0 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
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

// get returns the record cached under key, promoting it to most recently
// used.
func (c *solveCache) get(key string) (*cacheRecord, bool) {
	sh := c.shardFor(key)
	var rec *cacheRecord
	sh.mu.Lock()
	if el, ok := sh.m[key]; ok {
		sh.ll.MoveToFront(el)
		rec = el.Value.(*cacheRecord)
	}
	sh.mu.Unlock()
	if rec == nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return rec, true
}

// put inserts rec unless its key is already cached — two requests that
// missed on the same inputs solved them to the same bits — and evicts the
// least recently used entries beyond the shard's budget.
func (c *solveCache) put(rec *cacheRecord) {
	sh := c.shardFor(rec.key)
	sh.mu.Lock()
	if _, ok := sh.m[rec.key]; ok {
		sh.mu.Unlock()
		return
	}
	sh.m[rec.key] = sh.ll.PushFront(rec)
	evicted := uint64(0)
	for sh.ll.Len() > sh.cap {
		back := sh.ll.Back()
		sh.ll.Remove(back)
		delete(sh.m, back.Value.(*cacheRecord).key)
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
	entries := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		entries += sh.ll.Len()
		sh.mu.Unlock()
	}
	return CacheStats{
		Enabled:   true,
		Capacity:  c.capacity,
		Entries:   entries,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}
