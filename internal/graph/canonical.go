package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/bits"
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
	return g.encode(nil).Bytes
}

// CanonicalForm is a graph's canonical bytes together with their layout:
// where each section starts, and where each node's run of edges starts.
// It is what SpliceCanonical derives the next version's bytes from. A form
// is immutable once built; splices share its unchanged parts.
type CanonicalForm struct {
	Bytes []byte
	// IDs, Weights and Edges are the offsets in Bytes where the identifier,
	// weight and edge sections start; the header (magic, n, m) ends at IDs.
	IDs, Weights, Edges int
	// Runs is the run index: Runs[v] is the offset, relative to Edges, of
	// node v's run — its edges (v, u) with u > v — and Runs[n] is the edge
	// section's length.
	Runs []int
}

// CanonicalForm returns Canonical() with its layout.
func (g *Graph) CanonicalForm() *CanonicalForm {
	f := g.encode(make([]int, g.N()+1))
	return &f
}

// encode is the one canonical encoder. It fills runs, the run index, when
// it is non-nil. The buffer is sized exactly, so a form kept by a caller
// holds no spare capacity.
func (g *Graph) encode(runs []int) CanonicalForm {
	n := g.N()
	size := headerLen(n, g.M()) + weightsLen(g.weights)
	for v := 0; v < n; v++ {
		size += uvarintLen(g.ids[v]) + g.runLen(v)
	}
	buf := make([]byte, 0, size)
	buf = appendHeader(buf, n, g.M())
	f := CanonicalForm{IDs: len(buf), Runs: runs}
	for v := 0; v < n; v++ {
		buf = binary.AppendUvarint(buf, g.ids[v])
	}
	f.Weights = len(buf)
	buf = appendWeights(buf, g.weights)
	f.Edges = len(buf)
	for v := 0; v < n; v++ {
		if runs != nil {
			runs[v] = len(buf) - f.Edges
		}
		buf = g.appendRun(buf, v)
	}
	if runs != nil {
		runs[n] = len(buf) - f.Edges
	}
	f.Bytes = buf
	return f
}

// canonicalChunk is the size of the buffer WriteCanonical streams
// through; a node whose run alone is longer grows it.
const canonicalChunk = 256

// WriteCanonical streams Canonical() into every writer in ws without
// materialising it: the bytes pass through one small buffer, so hashing a
// graph costs the hash states, not a copy of the graph. Writers must not
// fail (hash.Hash never does); their errors are ignored.
func (g *Graph) WriteCanonical(ws ...io.Writer) {
	buf := make([]byte, 0, canonicalChunk)
	// flush hands buf on once it is half full (every call when last), so
	// a varint appended after it always fits.
	flush := func(last bool) {
		if last || len(buf) >= canonicalChunk/2 {
			for _, w := range ws {
				_, _ = w.Write(buf)
			}
			buf = buf[:0]
		}
	}
	n := g.N()
	buf = appendHeader(buf, n, g.M())
	for _, id := range g.ids {
		buf = binary.AppendUvarint(buf, id)
		flush(false)
	}
	for _, w := range g.weights {
		buf = binary.AppendVarint(buf, w)
		flush(false)
	}
	for v := 0; v < n; v++ {
		buf = g.appendRun(buf, v)
		flush(false)
	}
	flush(true)
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length of binary.AppendVarint's encoding of x.
func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// headerLen is the length of appendHeader's output.
func headerLen(n, m int) int {
	return len(canonicalMagic) + uvarintLen(uint64(n)) + uvarintLen(uint64(m))
}

// weightsLen is the length of appendWeights's output.
func weightsLen(weights []int64) int {
	size := 0
	for _, w := range weights {
		size += varintLen(w)
	}
	return size
}

// runLen is the length of appendRun's output for node v.
func (g *Graph) runLen(v int) int {
	size, vLen := 0, uvarintLen(uint64(v))
	for _, u := range g.Neighbors(v) {
		if int(u) > v {
			size += vLen + uvarintLen(uint64(u))
		}
	}
	return size
}

func appendHeader(buf []byte, n, m int) []byte {
	buf = append(buf, canonicalMagic...)
	buf = binary.AppendUvarint(buf, uint64(n))
	return binary.AppendUvarint(buf, uint64(m))
}

func appendWeights(buf []byte, weights []int64) []byte {
	for _, w := range weights {
		buf = binary.AppendVarint(buf, w)
	}
	return buf
}

// appendRun emits node v's run: (v, u) for every neighbour u > v, in
// ascending u. Neighbour lists are sorted, so the runs in node order are
// the lexicographically sorted edge list with no further work.
func (g *Graph) appendRun(buf []byte, v int) []byte {
	for _, u := range g.Neighbors(v) {
		if int(u) > v {
			buf = binary.AppendUvarint(buf, uint64(v))
			buf = binary.AppendUvarint(buf, uint64(u))
		}
	}
	return buf
}

// SpliceCanonical returns g's canonical form derived from prev, the form
// of the graph that ApplyEdit turned into g with report rep. It costs the
// edit, not the graph: the header is rebuilt, the identifier section is
// copied, the weight section is re-emitted only when rep sets weights, and
// when rep changes edges only the touched nodes' runs are re-emitted —
// every other run is copied block-wise. Without edge changes the run index
// is shared with prev. The result equals g.CanonicalForm().
func (g *Graph) SpliceCanonical(prev *CanonicalForm, rep EditReport) *CanonicalForm {
	n := g.N()
	old := prev.Bytes
	buf := make([]byte, 0, g.spliceLen(prev, rep))
	buf = appendHeader(buf, n, g.M())
	f := &CanonicalForm{IDs: len(buf), Runs: prev.Runs}
	buf = append(buf, old[prev.IDs:prev.Weights]...)
	f.Weights = len(buf)
	if rep.WeightsSet > 0 {
		buf = appendWeights(buf, g.weights)
	} else {
		buf = append(buf, old[prev.Weights:prev.Edges]...)
	}
	f.Edges = len(buf)
	edges := old[prev.Edges:]
	if rep.EdgesAdded+rep.EdgesRemoved == 0 {
		f.Bytes = append(buf, edges...)
		return f
	}
	f.Runs = make([]int, n+1)
	// copyRuns copies the unchanged runs of nodes [from, to).
	copyRuns := func(from, to int) {
		shift := len(buf) - f.Edges - prev.Runs[from]
		buf = append(buf, edges[prev.Runs[from]:prev.Runs[to]]...)
		for v := from; v < to; v++ {
			f.Runs[v] = prev.Runs[v] + shift
		}
	}
	next := 0
	for v, touched := range rep.Touched {
		if touched {
			copyRuns(next, v)
			f.Runs[v] = len(buf) - f.Edges
			buf = g.appendRun(buf, v)
			next = v + 1
		}
	}
	copyRuns(next, n)
	f.Runs[n] = len(buf) - f.Edges
	f.Bytes = buf
	return f
}

// spliceLen is the exact length of the form SpliceCanonical derives from
// prev: prev's sections, with the header, the weight section when rep sets
// weights and the touched nodes' runs measured anew.
func (g *Graph) spliceLen(prev *CanonicalForm, rep EditReport) int {
	size := headerLen(g.N(), g.M()) + prev.Weights - prev.IDs
	if rep.WeightsSet > 0 {
		size += weightsLen(g.weights)
	} else {
		size += prev.Edges - prev.Weights
	}
	size += len(prev.Bytes) - prev.Edges
	if rep.EdgesAdded+rep.EdgesRemoved > 0 {
		for v, touched := range rep.Touched {
			if touched {
				size += g.runLen(v) - (prev.Runs[v+1] - prev.Runs[v])
			}
		}
	}
	return size
}

// Hash returns the SHA-256 content hash of Canonical(). Equal hashes mean
// (up to SHA-256 collisions) equal labelled graphs; isomorphic graphs with
// different labellings hash differently by design, because every algorithm
// in this repository is identifier- and index-sensitive.
func (g *Graph) Hash() [sha256.Size]byte {
	h := sha256.New()
	g.WriteCanonical(h)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// HashString returns Hash as lowercase hex, the form used in cache keys,
// logs and the HTTP API.
func (g *Graph) HashString() string {
	sum := g.Hash()
	return hex.EncodeToString(sum[:])
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
