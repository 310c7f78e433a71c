package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"distmwis/internal/graph"
)

// cacheEntry is one stored solve outcome. The set is kept packed (uvarint
// gaps, about a byte a member on the approximation tiers' answers), so the
// cache holds no []int32: a hit decodes it once for its response.
type cacheEntry struct {
	key      string
	set      graph.PackedSet
	weight   int64
	rounds   int
	messages int64
	bits     int64
	degraded bool
	// alg is the registry name of the solver that produced the set (the
	// planner's concrete choice, never "auto"); guarantee is its rendered
	// approximation bound for this instance.
	alg       string
	guarantee string
	// tag groups entries for bulk invalidation: dynamic-graph entries carry
	// the content hash of the graph (or connected component) they answer
	// for, so a mutation can evict exactly the subgraphs it changed.
	tag string
}

// bytes approximates the resident cost of the entry for budgeting: the
// packed set's bytes, which its constructors allocate at exactly that
// length, the strings' bytes, and the headers and bookkeeping a resident
// entry drags along (string headers 16 B, the packed set's count and slice
// header 32 B, the remaining fixed fields, the map cell and the LRU
// list.Element ≈ 96 B). The set is charged by its real size because the
// degraded tier's greedy answers have Θ(n) members: undercounting them let
// used drift past budget exactly when entries were largest.
func (e *cacheEntry) bytes() int64 {
	return int64(len(e.key)) + int64(len(e.tag)) + int64(len(e.alg)) + int64(len(e.guarantee)) +
		int64(e.set.Size()) + entryOverhead
}

// entryOverhead is the part of bytes() that is the same for every entry.
const entryOverhead = 16 + 16 + 16 + 16 + 32 + // key, tag, alg, guarantee and set headers
	8 + 8 + 8 + 8 + 8 + // weight, rounds, messages, bits, degraded (padded)
	96 // map entry + list.Element overhead

// solved is one executed solve: the entry the cache keeps and the member
// indices the entry was packed from. The solve's own response, and those
// of the single-flight followers sharing it, carry set as it is.
type solved struct {
	entry *cacheEntry
	set   []int32
}

// resultCache is a content-addressed LRU with a byte budget and
// single-flight deduplication. The key is sha256(canonical graph bytes ‖
// config fingerprint): two requests share an entry iff they would provably
// compute the identical set.
type resultCache struct {
	mu       sync.Mutex
	budget   int64
	used     int64
	order    *list.List               // front = most recently used
	entries  map[string]*list.Element // key → element holding *cacheEntry
	inflight map[string]*flight

	hits, misses, evictions, dedups, invalidations int64
}

// flight is one in-progress solve other requests can attach to.
type flight struct {
	done chan struct{}
	// res/err are valid once done is closed.
	res solved
	err error
}

func newResultCache(budget int64) *resultCache {
	return &resultCache{
		budget:   budget,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// cacheKey returns the result-cache key of a solve of g under a config
// fingerprint — the SHA-256 of g's canonical bytes, a zero byte and the
// fingerprint — together with g's content hash, both from one pass over
// the bytes. canon is g's canonical form when the request carried it; nil
// streams the form from g without materialising it.
func cacheKey(g *graph.Graph, canon []byte, fingerprint string) (key, hash string) {
	content, keyed := sha256.New(), sha256.New()
	if canon != nil {
		content.Write(canon)
		keyed.Write(canon)
	} else {
		g.WriteCanonical(content, keyed)
	}
	keyed.Write([]byte{0})
	keyed.Write([]byte(fingerprint))
	var sum [sha256.Size]byte
	var text [2 * sha256.Size]byte
	hex.Encode(text[:], keyed.Sum(sum[:0]))
	key = string(text[:])
	hex.Encode(text[:], content.Sum(sum[:0]))
	return key, string(text[:])
}

// get returns the cached entry for key, refreshing its recency.
func (c *resultCache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry), true
	}
	c.misses++
	return nil, false
}

// put stores an entry, evicting least-recently-used entries until the byte
// budget holds. Entries larger than the whole budget are not stored, and a
// negative budget (a disabled cache) stores nothing.
func (c *resultCache) put(e *cacheEntry) {
	sz := e.bytes()
	if c.budget < 0 || (c.budget > 0 && sz > c.budget) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		c.used -= el.Value.(*cacheEntry).bytes()
		c.order.Remove(el)
		delete(c.entries, e.key)
	}
	for c.budget > 0 && c.used+sz > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*cacheEntry)
		c.used -= victim.bytes()
		c.order.Remove(back)
		delete(c.entries, victim.key)
		c.evictions++
	}
	c.entries[e.key] = c.order.PushFront(e)
	c.used += sz
}

// invalidateTag evicts every entry whose tag matches, returning the count.
// Content addressing already keeps stale entries unreachable (a mutated
// graph has a new hash, hence new keys); invalidation reclaims the bytes
// of dead subgraph answers instead of waiting for LRU pressure.
func (c *resultCache) invalidateTag(tag string) int {
	if tag == "" {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var victims []*list.Element
	for el := c.order.Front(); el != nil; el = el.Next() {
		if el.Value.(*cacheEntry).tag == tag {
			victims = append(victims, el)
		}
	}
	for _, el := range victims {
		e := el.Value.(*cacheEntry)
		c.used -= e.bytes()
		c.order.Remove(el)
		delete(c.entries, e.key)
		c.invalidations++
	}
	return len(victims)
}

// do runs solve for key exactly once across concurrent callers: the first
// caller becomes the leader and executes solve; followers block until the
// leader finishes (or their own ctx expires) and share its outcome. The
// bool result reports whether this caller was a follower (the solve was
// shared).
func (c *resultCache) do(ctx context.Context, key string, solve func() (solved, error)) (solved, bool, error) {
	c.mu.Lock()
	if f, ok := c.inflight[key]; ok {
		c.dedups++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.res, true, f.err
		case <-ctx.Done():
			return solved{}, true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.res, f.err = solve()
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	return f.res, false, f.err
}

// stats returns a snapshot of the counters for /metrics.
func (c *resultCache) stats() (hits, misses, evictions, dedups, invalidations, used int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.dedups, c.invalidations, c.used, len(c.entries)
}

// specTarget is what a generator-spec fingerprint resolves to: the
// content-addressed cache key of the solve and the graph's hash.
type specTarget struct {
	key  string
	hash string
}

// specMemo maps a generator-spec request fingerprint to its specTarget so
// repeat spec requests skip graph construction and canonicalization on the
// hot path. It is a pure accelerator: the result cache stays authoritative
// (a memo hit whose cache line was evicted falls back to the full path),
// so stale entries cost a rebuild, never a wrong answer. Bounded FIFO —
// specs are tiny and uniform, recency tracking isn't worth the churn.
type specMemo struct {
	mu    sync.Mutex
	cap   int
	order *list.List // of string (spec fingerprint), front = oldest
	m     map[string]specTarget
}

func newSpecMemo(capacity int) *specMemo {
	return &specMemo{cap: capacity, order: list.New(), m: make(map[string]specTarget)}
}

func (s *specMemo) get(spec string) (specTarget, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.m[spec]
	return t, ok
}

func (s *specMemo) put(spec string, t specTarget) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[spec]; ok {
		s.m[spec] = t
		return
	}
	s.m[spec] = t
	s.order.PushBack(spec)
	for s.cap > 0 && len(s.m) > s.cap {
		oldest := s.order.Front()
		s.order.Remove(oldest)
		delete(s.m, oldest.Value.(string))
	}
}
