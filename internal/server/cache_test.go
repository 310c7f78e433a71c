package server

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distmwis/internal/graph"
)

func entryOf(key string, n int) *cacheEntry {
	return &cacheEntry{key: key, set: graph.PackMembers(firstMembers(n))}
}

// firstMembers returns the members 0, 1, …, n−1.
func firstMembers(n int) []int32 {
	set := make([]int32, n)
	for i := range set {
		set[i] = int32(i)
	}
	return set
}

func TestCacheLRUEvictionByBytes(t *testing.T) {
	// All entries are the same shape, so size them once and budget for
	// exactly three.
	size := entryOf("k000", 10).bytes()
	c := newResultCache(3 * size)
	for i := 0; i < 4; i++ {
		c.put(entryOf(fmt.Sprintf("k%03d", i), 10))
	}
	if _, ok := c.get("k000"); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	for i := 1; i < 4; i++ {
		if _, ok := c.get(fmt.Sprintf("k%03d", i)); !ok {
			t.Fatalf("entry k%03d missing", i)
		}
	}
	_, _, evictions, _, _, used, entries := c.stats()
	if evictions != 1 || entries != 3 {
		t.Fatalf("evictions=%d entries=%d, want 1 and 3", evictions, entries)
	}
	if used != 3*size {
		t.Fatalf("used=%d, want %d", used, 3*size)
	}
}

func TestCacheLRURecencyOrder(t *testing.T) {
	c := newResultCache(3 * entryOf("k000", 10).bytes())
	c.put(entryOf("k000", 10))
	c.put(entryOf("k001", 10))
	c.put(entryOf("k002", 10))
	// Touch k000 so k001 becomes the LRU victim.
	if _, ok := c.get("k000"); !ok {
		t.Fatal("k000 should be present")
	}
	c.put(entryOf("k003", 10))
	if _, ok := c.get("k001"); ok {
		t.Fatal("k001 should have been evicted (least recently used)")
	}
	if _, ok := c.get("k000"); !ok {
		t.Fatal("recently used k000 should survive")
	}
}

func TestCacheRejectsOversizedEntry(t *testing.T) {
	c := newResultCache(100)
	c.put(entryOf("big0", 1000))
	if _, ok := c.get("big0"); ok {
		t.Fatal("entry larger than the whole budget must not be stored")
	}
}

// TestCacheBudgetHoldsUnderDegradedEntries is the regression test for the
// old "independent sets are small" accounting: degraded-tier greedy answers
// on sparse graphs have Θ(n) members, and the old bytes() charged a flat
// size, so a stream of such entries drove used past the budget by orders
// of magnitude. This pins the two halves of the fix: the packed set's
// bytes are charged in full, and used never exceeds budget at any point of
// an adversarial insertion stream.
func TestCacheBudgetHoldsUnderDegradedEntries(t *testing.T) {
	// A degraded-tier-shaped entry: Θ(n) members spread over a graph of
	// 300 nodes a member, so every gap takes two bytes, and a
	// sha256-hex-length key.
	degraded := func(i, members int) *cacheEntry {
		set := make([]int32, members)
		for j := range set {
			set[j] = int32(300 * j)
		}
		return &cacheEntry{
			key:      fmt.Sprintf("%064d", i),
			set:      graph.PackMembers(set),
			degraded: true,
		}
	}
	if e := degraded(0, 100); e.set.Size() != 2*100-1 || e.bytes() != int64(len(e.key)+e.set.Size())+entryOverhead {
		t.Fatalf("bytes()=%d for a %d-byte packed set under a %d-byte key, want the two plus %d",
			e.bytes(), e.set.Size(), len(e.key), entryOverhead)
	}

	const budget = 1 << 16 // 64 KiB: a handful of large entries
	c := newResultCache(budget)
	for i := 0; i < 200; i++ {
		c.put(degraded(i, 1000+13*i))
		_, _, _, _, _, used, entries := c.stats()
		if used > budget {
			t.Fatalf("after put %d: used=%d exceeds budget=%d (entries=%d)", i, used, budget, entries)
		}
	}
	// The budget must hold because entries were evicted, not because
	// nothing fit: the cache should still be serving recent entries.
	_, _, evictions, _, _, used, entries := c.stats()
	if entries == 0 || evictions == 0 {
		t.Fatalf("vacuous run: entries=%d evictions=%d", entries, evictions)
	}
	if used > budget {
		t.Fatalf("final used=%d exceeds budget=%d", used, budget)
	}
	// And the accounting must be exact: used equals the sum over resident
	// entries of bytes(), so drift cannot accumulate across evictions.
	var sum int64
	for i := 0; i < 200; i++ {
		if e, ok := c.get(fmt.Sprintf("%064d", i)); ok {
			sum += e.bytes()
		}
	}
	if sum != used {
		t.Fatalf("used=%d but resident entries sum to %d (accounting drift)", used, sum)
	}
}

// TestColdShapeEntryBytes pins what a cached cold-shape answer costs:
// theorem2 on gnp(2000, 0.004) with poly2 weights, the cold-solve
// workload's shape, answers with about 560 members, which as an []int32
// took 3,788 accounted bytes an entry. Packed, an entry must stay within
// 1,200 bytes, bytes() must be exactly the packed set's length plus the
// strings and the fixed overhead, and a cache hit must answer with the
// set the fresh solve did.
func TestColdShapeEntryBytes(t *testing.T) {
	const ceiling = 1200
	s, ts := newTestServer(t, Options{Workers: 1})
	const seeds = 4
	for seed := uint64(1); seed <= seeds; seed++ {
		req := SolveRequest{Gen: &GenSpec{Kind: "gnp", N: 2000, P: 0.004, Weights: "poly2", Seed: seed}, Alg: "theorem2"}
		code, fresh := postSolve(t, ts, req)
		if code != http.StatusOK || fresh.Cached || len(fresh.Set) < 400 {
			t.Fatalf("seed %d: cold solve %d cached=%t |set|=%d", seed, code, fresh.Cached, len(fresh.Set))
		}
		code, hit := postSolve(t, ts, req)
		if code != http.StatusOK || !hit.Cached || !slices.Equal(hit.Set, fresh.Set) || hit.Size != fresh.Size {
			t.Fatalf("seed %d: cache hit %d cached=%t answers %d members, the fresh solve %d", seed, code, hit.Cached, hit.Size, fresh.Size)
		}
	}
	_, _, _, _, _, used, entries := s.cache.stats()
	if entries != seeds {
		t.Fatalf("%d cache entries after %d cold solves", entries, seeds)
	}
	t.Logf("%d accounted bytes an entry", used/seeds)
	if used > ceiling*seeds {
		t.Errorf("%d accounted bytes an entry, want at most %d", used/seeds, ceiling)
	}
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	for _, el := range s.cache.entries {
		e := el.Value.(*cacheEntry)
		strs := len(e.key) + len(e.tag) + len(e.alg) + len(e.guarantee)
		if want := int64(strs+e.set.Size()) + entryOverhead; e.bytes() != want {
			t.Errorf("bytes() = %d, want %d: %d packed bytes, %d of strings and %d fixed", e.bytes(), want, e.set.Size(), strs, entryOverhead)
		}
	}
}

func TestCacheOverwriteSameKey(t *testing.T) {
	c := newResultCache(1 << 20)
	c.put(entryOf("same", 10))
	c.put(entryOf("same", 20))
	e, ok := c.get("same")
	if !ok || e.set.Len() != 20 {
		t.Fatalf("overwrite failed: ok=%t len=%d", ok, e.set.Len())
	}
	_, _, _, _, _, used, entries := c.stats()
	if entries != 1 {
		t.Fatalf("entries=%d, want 1", entries)
	}
	want := entryOf("same", 20).bytes()
	if used != want {
		t.Fatalf("used=%d, want %d (stale size leaked)", used, want)
	}
}

func TestSingleFlightDeduplicates(t *testing.T) {
	c := newResultCache(1 << 20)
	var solves atomic.Int64
	release := make(chan struct{})
	const callers = 8
	var wg sync.WaitGroup
	leaders := int64(0)
	var mu sync.Mutex
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, shared, err := c.do(context.Background(), "dup", func() (solved, error) {
				solves.Add(1)
				<-release
				return solved{entryOf("dup", 5), firstMembers(5)}, nil
			})
			if err != nil {
				t.Errorf("do: %v", err)
				return
			}
			if res.entry.set.Len() != 5 || len(res.set) != 5 {
				t.Errorf("wrong entry shared")
			}
			if !shared {
				mu.Lock()
				leaders++
				mu.Unlock()
			}
		}()
	}
	// Give followers time to attach before releasing the leader.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := solves.Load(); got != 1 {
		t.Fatalf("%d solves for %d concurrent identical requests, want 1", got, callers)
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want exactly 1", leaders)
	}
}

func TestSingleFlightFollowerDeadline(t *testing.T) {
	c := newResultCache(1 << 20)
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	go func() {
		_, _, _ = c.do(context.Background(), "slow", func() (solved, error) {
			close(started)
			<-release
			return solved{entry: entryOf("slow", 1)}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, shared, err := c.do(ctx, "slow", func() (solved, error) {
		t.Error("follower must not start its own solve")
		return solved{}, nil
	})
	if !shared || err == nil {
		t.Fatalf("follower should time out waiting: shared=%t err=%v", shared, err)
	}
}

func TestSpecMemoBoundedFIFO(t *testing.T) {
	m := newSpecMemo(2)
	m.put("a", specTarget{key: "k1", hash: "h1"})
	m.put("b", specTarget{key: "k2", hash: "h2"})
	if got, ok := m.get("a"); !ok || got.key != "k1" || got.hash != "h1" {
		t.Fatalf("get(a) = %+v, %v", got, ok)
	}
	// Update in place must not grow the memo or change eviction order.
	m.put("a", specTarget{key: "k1b", hash: "h1b"})
	if got, _ := m.get("a"); got.key != "k1b" {
		t.Fatalf("update lost: %+v", got)
	}
	// Third insert evicts the oldest ("a": FIFO, recency is not tracked).
	m.put("c", specTarget{key: "k3", hash: "h3"})
	if _, ok := m.get("a"); ok {
		t.Error("oldest entry not evicted at capacity")
	}
	for _, want := range []string{"b", "c"} {
		if _, ok := m.get(want); !ok {
			t.Errorf("entry %q missing after eviction", want)
		}
	}
}
