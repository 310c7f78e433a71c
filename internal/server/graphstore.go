package server

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"distmwis/internal/graph"
	"distmwis/internal/reliable"
	"distmwis/internal/repair"
)

// This file is the dynamic-graph subsystem: named graph handles that
// clients create with PUT /v1/graph and mutate with PATCH /v1/graph/{hash}.
//
// A handle is identified by content hash, and every hash it has ever had
// keeps resolving to it — clients can hold an old hash across someone
// else's PATCH and still reach the current state (last write wins). Graphs
// themselves stay immutable: a PATCH rebuilds a new *graph.Graph, so
// in-flight solves and queued repair tasks holding the old snapshot remain
// sound.
//
// Durability shares the server's one journal file with async jobs
// (journal.go), but records state changes, not pending work: every
// accepted PUT and PATCH is an apply record, fsynced before the mutation is
// acknowledged or visible. PATCH records carry the expected resulting hash,
// so boot-time replay verifies bit-identical reconstruction — ApplyEdit is
// deterministic, so a hash mismatch can only mean a corrupt journal, which
// is refused loudly rather than served quietly. After replay the journal is
// snapshot-compacted: one put record per live handle, so it is bounded by
// live state, not mutation history.
//
// Each mutation also drives the self-healing pipeline:
//
//  1. connected components whose content vanished are invalidated from the
//     result cache at component granularity (the metric counts them);
//  2. the handle's last full answer, if any, is carried onto the new graph
//     and healed with reliable.Repair — independence restored immediately,
//     optimality degraded — and published in the answers registry;
//  3. a repair-tier task is enqueued to upgrade that degraded answer to
//     "improved" (budgeted greedy re-admission) and then "full" (a real
//     component-wise re-solve), republishing at each step.

// graphVersion is one version of a dynamic graph, derived from its edit and
// encoded, hashed and decomposed exactly once; every later stage — the
// PATCH acknowledgement, component invalidation, healing, ref solves and
// their cache keys, journal replay — reuses it. It is immutable and may be
// used freely outside the store lock.
type graphVersion struct {
	g *graph.Graph
	// form is g's canonical bytes with their run index: the next version's
	// form is spliced from it, so a PATCH never encodes the whole graph.
	form  *graph.CanonicalForm
	hash  string
	parts []graph.Component // g's components, the granularity of reuse
	// digest is the marshalled SHA-256 state after g's canonical bytes:
	// refCacheKey resumes it rather than hashing the graph again.
	digest []byte
}

// newVersion hashes g's canonical form once; form and parts must be g's.
func newVersion(g *graph.Graph, form *graph.CanonicalForm, parts []graph.Component) *graphVersion {
	h := sha256.New()
	h.Write(form.Bytes)
	digest, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("server: sha256 state: %v", err)) // crypto/sha256 always marshals
	}
	return &graphVersion{g: g, form: form, hash: hex.EncodeToString(h.Sum(nil)), parts: parts, digest: digest}
}

// putVersion builds the first version of a graph: a full encode and split.
func putVersion(g *graph.Graph) *graphVersion {
	return newVersion(g, g.CanonicalForm(), g.SplitComponents())
}

// derive applies an edit to v, splicing the new canonical form from v's and
// carrying every component the edit did not touch into the new version.
func (v *graphVersion) derive(e graph.Edit) (*graphVersion, graph.EditReport, error) {
	ng, rep, err := v.g.ApplyEdit(e)
	if err != nil {
		return nil, rep, err
	}
	return newVersion(ng, ng.SpliceCanonical(v.form, rep), ng.CarryComponents(v.parts, rep.Touched)), rep, nil
}

// dynGraph is one mutable graph handle. All fields are guarded by the
// owning graphStore's mutex; the current version is immutable and may be
// snapshotted out under the lock and used freely after.
type dynGraph struct {
	id      string // journal identity, stable across hash changes
	ver     *graphVersion
	aliases []string // prior hashes, oldest first
	version int      // PATCHes applied since PUT

	// The last full-quality answer served for this handle, with the
	// normalized request that produced it: the seed the healing pipeline
	// repairs onto the next version.
	lastReq *SolveRequest
	lastSet []bool
}

// graphStore holds every dynamic graph handle, indexed by all their hashes.
type graphStore struct {
	mu     sync.Mutex
	byHash map[string]*dynGraph
	order  []*dynGraph // insertion order, for deterministic snapshots
	seq    int

	mutations    int64
	invalidated  int64
	healed       int64
	casConflicts int64
}

// short abbreviates a content hash for error messages.
func short(h string) string {
	if len(h) > 19 {
		return h[:19] + "…"
	}
	return h
}

func newGraphStore() *graphStore {
	return &graphStore{byHash: make(map[string]*dynGraph)}
}

// graphWALData is the payload of one graph apply record in the journal.
type graphWALData struct {
	Kind string `json:"kind"` // "put" or "patch"
	// Graph is the jsonDoc bytes of a put (or snapshot) record.
	Graph json.RawMessage `json:"graph,omitempty"`
	// Aliases restores prior hashes on snapshot records so stale client
	// handles survive restarts.
	Aliases []string `json:"aliases,omitempty"`
	Version int      `json:"version,omitempty"`
	// Prev/Next frame a patch record: the edit applies to the graph whose
	// hash is Prev and must yield the graph whose hash is Next.
	Prev string      `json:"prev,omitempty"`
	Next string      `json:"next,omitempty"`
	Edit *graph.Edit `json:"edit,omitempty"`
}

// register creates a handle for a version under the store lock.
func (gs *graphStore) register(id string, ver *graphVersion, aliases []string, version int) *dynGraph {
	h := &dynGraph{id: id, ver: ver, aliases: aliases, version: version}
	gs.byHash[ver.hash] = h
	for _, a := range aliases {
		gs.byHash[a] = h
	}
	gs.order = append(gs.order, h)
	return h
}

// snapshot returns the handle's current version (immutable, safe to use
// unlocked).
func (gs *graphStore) snapshot(hash string) (*graphVersion, bool) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	h, ok := gs.byHash[hash]
	if !ok {
		return nil, false
	}
	return h.ver, true
}

// replay rebuilds the handles from a journal's apply records: put records
// re-register handles, patch records re-apply their edits and are verified
// against the journaled resulting hash. It returns the number of records
// replayed and the snapshot that replaces them, one put record per live
// handle.
func (gs *graphStore) replay(recs []reliable.WALRecord) (int, []reliable.WALRecord, error) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	for _, rec := range recs {
		var d graphWALData
		if err := json.Unmarshal(rec.Data, &d); err != nil {
			return 0, nil, fmt.Errorf("server: graph journal %s: %w", rec.ID, err)
		}
		switch d.Kind {
		case "put":
			g, err := graph.ReadJSON(bytes.NewReader(d.Graph))
			if err != nil {
				return 0, nil, fmt.Errorf("server: graph journal %s: %w", rec.ID, err)
			}
			gs.register(rec.ID, putVersion(g), d.Aliases, d.Version)
			gs.seq++
		case "patch":
			h, ok := gs.byHash[d.Prev]
			if !ok || h.ver.hash != d.Prev || d.Edit == nil {
				return 0, nil, fmt.Errorf("server: graph journal %s: patch against unknown state %s", rec.ID, d.Prev)
			}
			nv, _, err := h.ver.derive(*d.Edit)
			if err != nil {
				return 0, nil, fmt.Errorf("server: graph journal %s: %w", rec.ID, err)
			}
			if nv.hash != d.Next {
				// Deterministic replay means this is impossible on an intact
				// journal; refusing to boot beats serving forked state.
				return 0, nil, fmt.Errorf("server: graph journal %s: replay hash %s != journaled %s", rec.ID, nv.hash, d.Next)
			}
			gs.advance(h, nv)
		default:
			return 0, nil, fmt.Errorf("server: graph journal %s: unknown kind %q", rec.ID, d.Kind)
		}
	}
	snap := make([]reliable.WALRecord, 0, len(gs.order))
	for _, h := range gs.order {
		data, err := putRecord(h)
		if err != nil {
			return 0, nil, err
		}
		snap = append(snap, reliable.WALRecord{Op: reliable.WALApply, ID: h.id, Data: data})
	}
	return len(recs), snap, nil
}

func putRecord(h *dynGraph) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := h.ver.g.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("server: graph journal snapshot %s: %w", h.id, err)
	}
	return json.Marshal(graphWALData{
		Kind:    "put",
		Graph:   buf.Bytes(),
		Aliases: h.aliases,
		Version: h.version,
	})
}

// advance moves a handle to a new version under the store lock: the old
// hash becomes an alias, and the components of the old version that the
// new one lacks are returned for invalidation.
func (gs *graphStore) advance(h *dynGraph, nv *graphVersion) (invalidated []string) {
	live := make(map[string]bool, len(nv.parts))
	for _, p := range nv.parts {
		live[p.Hash] = true
	}
	for _, p := range h.ver.parts {
		if !live[p.Hash] {
			invalidated = append(invalidated, p.Hash)
		}
	}
	sort.Strings(invalidated)
	if nv.hash != h.ver.hash {
		h.aliases = append(h.aliases, h.ver.hash)
		gs.byHash[nv.hash] = h
	}
	h.ver = nv
	h.version++
	return invalidated
}

// PutGraphResponse is the body of PUT /v1/graph and GET /v1/graph/{hash}.
type PutGraphResponse struct {
	// Hash is the graph's current content hash — the handle name for
	// PATCH and for graph_ref solves.
	Hash string `json:"hash"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	// Components is the connected-component count, the granularity of
	// cache invalidation.
	Components int `json:"components"`
	// Version counts PATCHes applied since PUT.
	Version int    `json:"version"`
	Error   string `json:"error,omitempty"`
}

// PatchGraphResponse is the body of PATCH /v1/graph/{hash}.
type PatchGraphResponse struct {
	// PrevHash/Hash are the content hashes before and after the edit. The
	// previous hash keeps resolving to this handle.
	PrevHash string `json:"prev_hash"`
	Hash     string `json:"hash"`
	Version  int    `json:"version"`
	// EdgesAdded/EdgesRemoved/WeightsSet/Noops echo the graph.EditReport.
	EdgesAdded   int `json:"edges_added"`
	EdgesRemoved int `json:"edges_removed"`
	WeightsSet   int `json:"weights_set"`
	Noops        int `json:"noops"`
	Components   int `json:"components"`
	// Conflict reports a compare-and-swap failure: the request named a
	// prev_hash that is not the handle's current hash. Hash carries the
	// current hash so the caller can re-read, rebase and retry.
	Conflict bool `json:"conflict,omitempty"`
	// InvalidatedComponents counts components of the previous version whose
	// cached answers were evicted because their content no longer exists.
	InvalidatedComponents int `json:"invalidated_components"`
	// Healed reports that the handle's last full answer was repaired onto
	// the new version and queued for background upgrade; AnswerKey is where
	// GET /v1/answers observes the degraded→improved→full progression.
	Healed    bool   `json:"healed,omitempty"`
	AnswerKey string `json:"answer_key,omitempty"`
	Error     string `json:"error,omitempty"`
}

func (s *Server) handlePutGraph(w http.ResponseWriter, r *http.Request) {
	if s.shutdown.Load() {
		writeJSON(w, http.StatusServiceUnavailable, PutGraphResponse{Error: "server is draining"})
		return
	}
	var raw json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		writeJSON(w, http.StatusBadRequest, PutGraphResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	g, err := graph.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, PutGraphResponse{Error: err.Error()})
		return
	}
	ver := putVersion(g)

	gs := s.graphs
	gs.mu.Lock()
	if h, ok := gs.byHash[ver.hash]; ok {
		// Idempotent PUT: the content already has a handle (possibly as a
		// prior version of one). Re-putting bytes that exist is a no-op.
		resp := putResponse(h)
		gs.mu.Unlock()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	gs.seq++
	id := fmt.Sprintf("g-%d", gs.seq)
	if s.wal != nil {
		data, err := json.Marshal(graphWALData{Kind: "put", Graph: raw})
		if err == nil {
			err = s.wal.Apply(id, json.RawMessage(data))
		}
		if err != nil {
			gs.mu.Unlock()
			writeJSON(w, http.StatusInternalServerError, PutGraphResponse{Error: fmt.Sprintf("journal: %v", err)})
			return
		}
	}
	h := gs.register(id, ver, nil, 0)
	resp := putResponse(h)
	gs.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func putResponse(h *dynGraph) PutGraphResponse {
	return PutGraphResponse{
		Hash:       h.ver.hash,
		N:          h.ver.g.N(),
		M:          h.ver.g.M(),
		Components: len(h.ver.parts),
		Version:    h.version,
	}
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	gs := s.graphs
	gs.mu.Lock()
	h, ok := gs.byHash[r.PathValue("hash")]
	if !ok {
		gs.mu.Unlock()
		writeJSON(w, http.StatusNotFound, PutGraphResponse{Error: "unknown graph"})
		return
	}
	resp := putResponse(h)
	gs.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePatchGraph(w http.ResponseWriter, r *http.Request) {
	if s.shutdown.Load() {
		writeJSON(w, http.StatusServiceUnavailable, PatchGraphResponse{Error: "server is draining"})
		return
	}
	var body struct {
		graph.Edit
		// PrevHash, when set, makes the PATCH conditional: it applies only
		// if the handle's current hash equals PrevHash (compare-and-swap).
		PrevHash string `json:"prev_hash,omitempty"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, PatchGraphResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	edit := body.Edit
	if edit.Empty() {
		writeJSON(w, http.StatusBadRequest, PatchGraphResponse{Error: "empty edit"})
		return
	}

	gs := s.graphs
	gs.mu.Lock()
	h, ok := gs.byHash[r.PathValue("hash")]
	if !ok {
		gs.mu.Unlock()
		writeJSON(w, http.StatusNotFound, PatchGraphResponse{Error: "unknown graph"})
		return
	}
	// The edit always applies to the handle's CURRENT state, whatever hash
	// named it: concurrent mutators serialize here, last write wins, and
	// each acknowledgement returns the hash its writer actually produced.
	// A prev_hash makes the write conditional instead: it must name the
	// current state exactly (an alias is not enough — an alias by
	// definition means someone else wrote in between), or the PATCH fails
	// with 409 and the current hash to rebase onto.
	prev := h.ver.hash
	if body.PrevHash != "" && body.PrevHash != prev {
		version := h.version
		gs.casConflicts++
		gs.mu.Unlock()
		writeJSON(w, http.StatusConflict, PatchGraphResponse{
			PrevHash: body.PrevHash,
			Hash:     prev,
			Version:  version,
			Conflict: true,
			Error:    fmt.Sprintf("prev_hash %s is not the current state %s", short(body.PrevHash), short(prev)),
		})
		return
	}
	nv, rep, err := h.ver.derive(edit)
	if err != nil {
		gs.mu.Unlock()
		writeJSON(w, http.StatusBadRequest, PatchGraphResponse{Error: err.Error()})
		return
	}
	next := nv.hash
	// The write-ahead contract, same as for async jobs: the apply record —
	// with the expected resulting hash, for verified replay — is durable
	// before the mutation is acknowledged or even visible in memory. The
	// store lock stays held across the sync, so graph records reach the
	// journal in the order their edits applied (replay checks each Prev);
	// they share syncs only with concurrent job records.
	if s.wal != nil {
		data, jerr := json.Marshal(graphWALData{Kind: "patch", Prev: prev, Next: next, Edit: &edit})
		if jerr == nil {
			jerr = s.wal.Apply(h.id, json.RawMessage(data))
		}
		if jerr != nil {
			gs.mu.Unlock()
			writeJSON(w, http.StatusInternalServerError, PatchGraphResponse{Error: fmt.Sprintf("journal: %v", jerr)})
			return
		}
	}
	invalidated := gs.advance(h, nv)
	gs.mutations++
	gs.invalidated += int64(len(invalidated))
	// Snapshot what healing needs before releasing the lock.
	lastReq, lastSet := h.lastReq, h.lastSet
	version := h.version
	comps := len(nv.parts)
	if lastSet != nil {
		gs.healed++
	}
	gs.mu.Unlock()

	for _, tag := range invalidated {
		s.cache.invalidateTag(tag)
	}
	s.cache.invalidateTag(prev)

	resp := PatchGraphResponse{
		PrevHash:              prev,
		Hash:                  next,
		Version:               version,
		EdgesAdded:            rep.EdgesAdded,
		EdgesRemoved:          rep.EdgesRemoved,
		WeightsSet:            rep.WeightsSet,
		Noops:                 rep.Noops,
		Components:            comps,
		InvalidatedComponents: len(invalidated),
	}
	if lastSet != nil {
		resp.Healed = true
		resp.AnswerKey = s.healAnswer(nv, lastReq, lastSet)
	}
	writeJSON(w, http.StatusOK, resp)
}

// healAnswer carries a full answer from the previous graph version onto the
// new one: node indices are stable across versions, so the old set is a
// valid candidate that at worst conflicts on freshly added edges.
// reliable.Repair withdraws the cheaper endpoint of each conflict, giving
// an immediately-publishable independent answer tagged degraded, and a
// repair-tier task upgrades it in the background. Returns the answer key.
func (s *Server) healAnswer(ver *graphVersion, req *SolveRequest, prevSet []bool) string {
	set := append([]bool(nil), prevSet...)
	reliable.Repair(ver.g, set)
	p := prepared{g: ver.g, hash: ver.hash, ver: ver, key: refCacheKey(ver, req)}
	s.publishDegraded(req, p, set, ver.g.SetWeight(set), "healed")
	return p.key
}

// enqueueUpgrade hands a degraded answer to the repair tier. The task
// snapshots the graph version it answers for; the Full callback re-solves
// component-wise through the same cache adapters as foreground ref solves,
// so the final answer is bit-identical to an unshedded solve.
//
// The task holds the version's graph but not its components: the Full
// callback splits the graph again when it runs. Queued tasks wait long and
// span many versions, so pinning every version's induced components would
// keep a second copy of each graph alive in the queue, while the tier runs
// only a few Full solves per second.
//
// The tier heals the set, publishes its greedy extension as improved, and
// runs Full on the next tick. Done settles the task with no work at all
// once a foreground solve has published the key at full quality — the same
// bit-identical answer the task would have computed.
func (s *Server) enqueueUpgrade(key, hash string, g *graph.Graph, set []bool, req *SolveRequest) {
	cfg, err := req.maxisConfig(s.opts.SolveWorkers)
	if err != nil {
		return
	}
	s.repairTier.Enqueue(repair.Task{
		Key:       key,
		G:         g,
		GraphHash: hash,
		Start:     append([]bool(nil), set...),
		Done: func() bool {
			a, ok := s.answers.get(key)
			return ok && a.Quality == qualityFull
		},
		FullAlg: req.Alg,
		Full: func() ([]bool, int64, error) {
			e, err := s.solveRef(req, g, g.SplitComponents(), cfg, key, hash)
			if err != nil {
				return nil, 0, err
			}
			return graph.FromMembers(e.set, g.N()), e.weight, nil
		},
	})
}
