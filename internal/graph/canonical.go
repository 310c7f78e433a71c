package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
)

// canonicalMagic versions the canonical encoding. Bump it whenever the byte
// layout changes: content hashes are cache keys, and a silent layout change
// would alias old and new entries.
var canonicalMagic = []byte("DMWG1")

// Canonical returns a stable, self-contained binary serialization of g:
// magic, n, m, identifiers, weights, then every undirected edge once as
// (u, v) with u < v in lexicographic order. Two graphs have equal canonical
// forms iff they have identical node counts, identifiers, weights and edge
// sets — regardless of the order edges were added to the Builder. It is the
// preimage of Hash and round-trips through FromCanonical.
func (g *Graph) Canonical() []byte {
	n := g.N()
	buf := make([]byte, 0, len(canonicalMagic)+binary.MaxVarintLen64*(2+2*n)+8*len(g.adj))
	buf = append(buf, canonicalMagic...)
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(g.M()))
	for v := 0; v < n; v++ {
		buf = binary.AppendUvarint(buf, g.ids[v])
	}
	for v := 0; v < n; v++ {
		buf = binary.AppendVarint(buf, g.weights[v])
	}
	// Neighbour lists are sorted, so emitting the v < u half in node order
	// yields lexicographically sorted edges with no further work.
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) > v {
				buf = binary.AppendUvarint(buf, uint64(v))
				buf = binary.AppendUvarint(buf, uint64(u))
			}
		}
	}
	return buf
}

// Hash returns the SHA-256 content hash of Canonical(). Equal hashes mean
// (up to SHA-256 collisions) equal labelled graphs; isomorphic graphs with
// different labellings hash differently by design, because every algorithm
// in this repository is identifier- and index-sensitive.
func (g *Graph) Hash() [sha256.Size]byte {
	return sha256.Sum256(g.Canonical())
}

// HashString returns Hash as lowercase hex, the form used in cache keys,
// logs and the HTTP API.
func (g *Graph) HashString() string {
	return HashCanonical(g.Canonical())
}

// HashCanonical returns the lowercase hex SHA-256 of a canonical form: for
// canonical == g.Canonical() it equals g.HashString(). Callers that already
// hold the canonical bytes hash them without re-encoding the graph.
func HashCanonical(canonical []byte) string {
	h := sha256.Sum256(canonical)
	return hex.EncodeToString(h[:])
}

// FromCanonical decodes a graph serialized by Canonical. It accepts exactly
// the outputs of Canonical: every varint must be minimally encoded and the
// edge list strictly increasing in lexicographic order, so an accepted input
// satisfies FromCanonical(data).Canonical() == data and its hash is
// HashCanonical(data). Sizes are checked against the input length before
// anything is allocated, so a short input cannot claim a huge graph.
func FromCanonical(data []byte) (*Graph, error) {
	if len(data) < len(canonicalMagic) || string(data[:len(canonicalMagic)]) != string(canonicalMagic) {
		return nil, fmt.Errorf("graph: canonical: bad magic")
	}
	r := canonicalReader{buf: data[len(canonicalMagic):]}
	nU, mU := r.uvarint("node count"), r.uvarint("edge count")
	if r.err != nil {
		return nil, r.err
	}
	// Every node costs at least two bytes (identifier and weight) and every
	// edge at least two (its endpoints); the CSR offsets are int32.
	left := uint64(len(r.buf) - r.pos)
	if nU > left/2 || mU > (left-2*nU)/2 || nU > math.MaxInt32 || mU > math.MaxInt32/2 {
		return nil, fmt.Errorf("graph: canonical: n=%d m=%d do not fit in the %d bytes that follow", nU, mU, left)
	}
	n, m := int(nU), int(mU)
	g := &Graph{ids: make([]uint64, n), weights: make([]int64, n), off: make([]int32, n+1)}
	for v := range g.ids {
		g.ids[v] = r.uvarint("identifier")
	}
	// Weights bypass Build's rule: canonical forms may legitimately carry
	// the zero or negative weights of local-ratio-derived graphs.
	for v := range g.weights {
		g.weights[v] = r.varint("weight")
	}
	ends := make([]int32, 2*m)
	var pu, pv uint64
	for i := 0; i < m; i++ {
		u, v := r.uvarint("edge endpoint"), r.uvarint("edge endpoint")
		if r.err != nil {
			return nil, r.err
		}
		if u >= v || v >= nU {
			return nil, fmt.Errorf("graph: canonical: bad edge {%d,%d}", u, v)
		}
		if i > 0 && (u < pu || (u == pu && v <= pv)) {
			return nil, fmt.Errorf("graph: canonical: edge {%d,%d} does not follow {%d,%d}", u, v, pu, pv)
		}
		pu, pv = u, v
		ends[2*i], ends[2*i+1] = int32(u), int32(v)
		g.off[u+1]++
		g.off[v+1]++
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(r.buf) {
		return nil, fmt.Errorf("graph: canonical: %d trailing bytes", len(r.buf)-r.pos)
	}
	if err := checkIDs(g.ids); err != nil {
		return nil, fmt.Errorf("graph: canonical: %w", err)
	}
	// The CSR arrays are filled in edge order, which sorts every neighbour
	// list with no further work: a node's lower neighbours u (edges {u,v},
	// ascending in u) all precede its upper ones (edges {v,w}, ascending
	// in w).
	for v := 0; v < n; v++ {
		g.off[v+1] += g.off[v]
	}
	fill := slices.Clone(g.off[:n])
	g.adj = make([]int32, 2*m)
	for i := 0; i < len(ends); i += 2 {
		u, v := ends[i], ends[i+1]
		g.adj[fill[u]] = v
		fill[u]++
		g.adj[fill[v]] = u
		fill[v]++
	}
	g.setMaxDegree()
	return g, nil
}

// canonicalReader decodes the varints of a canonical form, keeping the
// first error. It accepts only minimal encodings — a final byte of zero
// after a continuation byte could be dropped — because Canonical emits
// nothing else, and a padded varint would decode to the same graph under
// a different hash.
type canonicalReader struct {
	buf []byte
	pos int
	err error
}

func (r *canonicalReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	x, k := binary.Uvarint(r.buf[r.pos:])
	switch {
	case k == 0:
		r.err = fmt.Errorf("graph: canonical: truncated %s", what)
	case k < 0:
		r.err = fmt.Errorf("graph: canonical: %s overflows 64 bits", what)
	case k > 1 && r.buf[r.pos+k-1] == 0:
		r.err = fmt.Errorf("graph: canonical: %s is not minimally encoded", what)
	default:
		r.pos += k
		return x
	}
	return 0
}

// varint reads a zigzag-encoded signed varint, as binary.AppendVarint
// writes it.
func (r *canonicalReader) varint(what string) int64 {
	x := r.uvarint(what)
	return int64(x>>1) ^ -int64(x&1)
}
