package server

import (
	"container/list"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"time"

	"distmwis/internal/graph"
	"distmwis/internal/maxis"
	"distmwis/internal/repair"
)

// Quality vocabulary of published answers, worst to best. The repair tier
// owns the two upgrade tags; the serving tier only ever publishes degraded
// or full directly.
const (
	qualityDegraded = "degraded"
	qualityFull     = repair.QualityFull
)

// qualityRank orders tags so out-of-order publishes never downgrade a
// registry entry for the same key (same key ⇒ same graph content and
// config, so a higher-quality answer is strictly better).
func qualityRank(q string) int {
	switch q {
	case qualityDegraded:
		return 1
	case repair.QualityImproved:
		return 2
	case qualityFull:
		return 3
	}
	return 0
}

// storedAnswer is one published answer; GET /v1/answers/{key} returns it.
type storedAnswer struct {
	Key       string  `json:"key"`
	GraphHash string  `json:"graph_hash"`
	Set       []int32 `json:"set"`
	Size      int     `json:"size"`
	Weight    int64   `json:"weight"`
	// Quality is degraded|improved|full; degraded and improved answers are
	// upgraded in place by the background repair tier.
	Quality string `json:"quality"`
	// Alg names the algorithm that produced the current set — the repair
	// tier rewrites it to greedy-improved, then to the full solve's name.
	Alg     string    `json:"alg,omitempty"`
	Updated time.Time `json:"updated"`
	Error   string    `json:"error,omitempty"`
}

// answerRegistry keeps the last N published answers keyed by answer key,
// FIFO-evicted. It is the observation surface for self-healing: clients
// watch an answer's quality climb without re-posting the solve.
type answerRegistry struct {
	mu    sync.Mutex
	cap   int
	byKey map[string]*list.Element
	order *list.List // front = newest inserted
}

func newAnswerRegistry(capacity int) *answerRegistry {
	return &answerRegistry{cap: capacity, byKey: make(map[string]*list.Element), order: list.New()}
}

// put inserts or upgrades an answer. Publishes that would lower the
// quality of an existing entry are dropped.
func (ar *answerRegistry) put(a *storedAnswer) {
	a.Size = len(a.Set)
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if el, ok := ar.byKey[a.Key]; ok {
		if qualityRank(a.Quality) < qualityRank(el.Value.(*storedAnswer).Quality) {
			return
		}
		el.Value = a
		return
	}
	ar.byKey[a.Key] = ar.order.PushFront(a)
	for ar.order.Len() > ar.cap {
		back := ar.order.Back()
		delete(ar.byKey, back.Value.(*storedAnswer).Key)
		ar.order.Remove(back)
	}
}

func (ar *answerRegistry) get(key string) (*storedAnswer, bool) {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	el, ok := ar.byKey[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*storedAnswer), true
}

func (s *Server) handleGetAnswer(w http.ResponseWriter, r *http.Request) {
	a, ok := s.answers.get(r.PathValue("key"))
	if !ok {
		writeJSON(w, http.StatusNotFound, storedAnswer{Error: "unknown answer key"})
		return
	}
	writeJSON(w, http.StatusOK, *a)
}

// publishUpgrade is the repair tier's publish callback: it upgrades the
// registry entry in place. The full answer reached the result cache, if
// it could, when the task's Full solve ran (solveRef). The graph hash
// travels with the task, so an upgrade whose degraded entry the registry
// has already evicted is republished under its own version.
func (s *Server) publishUpgrade(key string, a repair.Answer) {
	s.answers.put(&storedAnswer{
		Key:       key,
		GraphHash: a.GraphHash,
		Set:       graph.Members(a.Set),
		Weight:    a.Weight,
		Quality:   a.Quality,
		Alg:       a.Alg,
		Updated:   time.Now().UTC(),
	})
}

// refCacheKey is the content-addressed key of a graph_ref solve: it equals
// cacheKey(ver.g.Canonical(), fingerprint), the key of an inline solve of
// the same content (the two paths return the same set), resumed from the
// version's saved digest state instead of encoding the graph again.
func refCacheKey(ver *graphVersion, req *SolveRequest) string {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(ver.digest); err != nil {
		panic(fmt.Sprintf("server: sha256 state: %v", err)) // newVersion marshalled it
	}
	h.Write([]byte{0})
	h.Write([]byte(req.Fingerprint()))
	return hex.EncodeToString(h.Sum(nil))
}

// componentCache adapts the result cache to maxis.SolveComponents:
// per-component answers are ordinary cache entries, keyed by prefix and
// component content hash and tagged with the component hash so a mutation
// can invalidate exactly the components it destroyed.
func (s *Server) componentCache(prefix string) maxis.ComponentCache {
	return maxis.ComponentCache{
		Lookup: func(hash string) ([]int32, bool) {
			e, ok := s.cache.get(prefix + hash)
			if !ok {
				return nil, false
			}
			return e.set, true
		},
		Store: func(hash string, set []int32, weight int64) {
			s.cache.put(&cacheEntry{key: prefix + hash, set: set, weight: weight, tag: hash})
		},
	}
}

// solveRef runs the graph_ref solve of g, the version hash names, over
// its components parts through the component cache; the repair tier's
// Full runs it too. The set is Solve's on g, but rounds, messages and bits
// count the one run over the components the cache missed. So the entry
// goes under key, the line an inline solve of the same content shares,
// only when every component missed and that run was the whole-graph run.
// It is tagged with the version hash, so a PATCH evicts it.
func (s *Server) solveRef(req *SolveRequest, g *graph.Graph, parts []graph.Component, cfg maxis.Config, key, hash string) (*cacheEntry, error) {
	cfg = s.traced(req, cfg)
	scope, err := maxis.ComponentScope(req.Alg, g, req.Eps, req.Alpha, cfg)
	if err != nil {
		return nil, err
	}
	cache := s.componentCache("comp|" + req.Fingerprint() + "|" + scope + "|")
	res, stats, err := maxis.SolveComponents(req.Alg, g, parts, req.Eps, req.Alpha, cfg, cache)
	if err != nil {
		return nil, err
	}
	e := newEntry(req, g, key, res)
	e.tag = hash
	if stats.Reused == 0 && !req.NoCache {
		s.cache.put(e)
	}
	return e, nil
}

// publishDegraded is execute's graph_ref hook on the degraded tier. Unlike
// an anonymous graph, a ref answer has an address, so a downgrade is
// recoverable: publish the answer and queue its background upgrade.
// PATCH healing publishes through the same hook.
func (s *Server) publishDegraded(req *SolveRequest, p prepared, set []bool, weight int64, alg string) {
	s.answers.put(&storedAnswer{
		Key:       p.key,
		GraphHash: p.hash,
		Set:       graph.Members(set),
		Weight:    weight,
		Quality:   qualityDegraded,
		Alg:       alg,
		Updated:   time.Now().UTC(),
	})
	s.enqueueUpgrade(p.key, p.hash, p.g, set, req)
}

// publishFull is execute's graph_ref hook after a fresh full solve: publish
// the answer, and remember it as the seed the handle's next PATCH heals.
func (s *Server) publishFull(req *SolveRequest, p prepared, e *cacheEntry) {
	s.answers.put(&storedAnswer{
		Key:       p.key,
		GraphHash: p.hash,
		Set:       e.set,
		Weight:    e.weight,
		Quality:   qualityFull,
		Alg:       e.alg,
		Updated:   time.Now().UTC(),
	})
	s.graphs.recordFull(p.hash, req, e.set, p.g.N())
}

// recordFull remembers a handle's latest full answer and the request that
// produced it — the seed the next PATCH heals onto its new version. Skipped
// if the handle moved on while the solve ran: healing an older version's
// answer would be wrong by one more mutation than necessary.
func (gs *graphStore) recordFull(hash string, req *SolveRequest, set []int32, n int) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	h, ok := gs.byHash[hash]
	if !ok || h.ver.hash != hash {
		return
	}
	reqCopy := *req
	h.lastReq = &reqCopy
	h.lastSet = graph.FromMembers(set, n)
}
