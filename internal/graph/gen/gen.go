// Package gen provides deterministic, seeded graph and weight generators for
// every workload in the experiment suite (DESIGN.md Section 2).
//
// All randomized generators take an explicit seed and use an isolated PCG
// stream, so every experiment row is exactly reproducible. Structured
// families (cycle, clique, grid, cycle-of-cliques, ...) are the paper's own
// instances: the cycle and the cycle of cliques are the Section 7 lower-bound
// graphs, and union-of-forests instances have certified arboricity for
// Theorem 3.
package gen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"distmwis/internal/graph"
)

func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Cycle returns the n-node cycle C_n (n >= 3).
func Cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.MustBuild()
}

// Path returns the n-node path.
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.MustBuild()
}

// Clique returns the complete graph K_n.
func Clique(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// Star returns a star with one hub (node 0) and n-1 leaves.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.MustBuild()
}

// CompleteBipartite returns K_{a,b}: nodes 0..a-1 on one side, a..a+b-1 on
// the other.
func CompleteBipartite(a, b int) *graph.Graph {
	bld := graph.NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			bld.AddEdge(u, v)
		}
	}
	return bld.MustBuild()
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(at(r, c), at(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(at(r, c), at(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// Torus returns the rows x cols torus (grid with wraparound); every node has
// degree exactly 4 when rows, cols >= 3.
func Torus(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(at(r, c), at(r, (c+1)%cols))
			b.AddEdge(at(r, c), at((r+1)%rows, c))
		}
	}
	return b.MustBuild()
}

// Hypercube returns the d-dimensional hypercube on 2^d nodes.
func Hypercube(d int) *graph.Graph {
	n := 1 << uint(d)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			u := v ^ (1 << uint(bit))
			if u > v {
				b.AddEdge(v, u)
			}
		}
	}
	return b.MustBuild()
}

// GNP returns an Erdős–Rényi G(n, p) graph.
func GNP(n int, p float64, seed uint64) *graph.Graph {
	if p >= 1 {
		return Clique(n)
	}
	// The sampler runs once, into a recycled buffer sized for the expected
	// edge count.
	buf := gnpBufs.Get().(*[]int32)
	defer gnpBufs.Put(buf)
	*buf = appendGNPEdges(slices.Grow((*buf)[:0], 2*int(p*float64(n)*float64(n-1)/2*1.05+64)), n, p, seed)
	g, err := graph.FromOrderedEdges(n, *buf)
	if err != nil {
		panic(err)
	}
	return g
}

// gnpBufs recycles GNP's edge buffers: *[]int32 holding each edge's two
// endpoints in turn.
var gnpBufs = sync.Pool{New: func() any { return new([]int32) }}

// appendGNPEdges appends the edges of the G(n, p) graph of seed, p < 1, to
// edges as (u, v) pairs, by geometric skip sampling, which emits them
// ordered by their larger endpoint and then by their smaller one, as
// graph.FromOrderedEdges takes them.
func appendGNPEdges(edges []int32, n int, p float64, seed uint64) []int32 {
	if p <= 0 {
		return edges
	}
	r := rng(seed)
	logq := math.Log1p(-p)
	v, u := 1, -1
	for v < n {
		skip := int(math.Floor(math.Log(1-r.Float64()) / logq))
		u += 1 + skip
		for u >= v && v < n {
			u -= v
			v++
		}
		if v < n {
			edges = append(edges, int32(u), int32(v))
		}
	}
	return edges
}

// RandomRegular returns a random d-regular simple graph on n nodes. It
// starts from a circulant d-regular graph and randomizes it with ~10·m
// degree-preserving double-edge swaps, each applied only when it keeps the
// graph simple. n*d must be even and d < n.
func RandomRegular(n, d int, seed uint64) (*graph.Graph, error) {
	if n*d%2 != 0 {
		return nil, fmt.Errorf("gen: n*d = %d*%d must be even", n, d)
	}
	if d >= n {
		return nil, fmt.Errorf("gen: degree %d must be < n = %d", d, n)
	}
	r := rng(seed)
	// Circulant seed graph: offsets 1..d/2, plus the antipodal offset n/2
	// when d is odd (then n is even by the parity check).
	type edge struct{ u, v int32 }
	var edges []edge
	seen := make(map[[2]int32]bool)
	addEdge := func(u, v int32) {
		if u > v {
			u, v = v, u
		}
		key := [2]int32{u, v}
		if u != v && !seen[key] {
			seen[key] = true
			edges = append(edges, edge{u, v})
		}
	}
	for off := 1; off <= d/2; off++ {
		for v := 0; v < n; v++ {
			addEdge(int32(v), int32((v+off)%n))
		}
	}
	if d%2 == 1 {
		for v := 0; v < n/2; v++ {
			addEdge(int32(v), int32(v+n/2))
		}
	}
	// Double-edge swaps: (a,b),(c,e) -> (a,c),(b,e) when simple.
	m := len(edges)
	for swap := 0; swap < 10*m; swap++ {
		i, j := r.IntN(m), r.IntN(m)
		if i == j {
			continue
		}
		a, b := edges[i].u, edges[i].v
		c, e := edges[j].u, edges[j].v
		if r.IntN(2) == 0 {
			c, e = e, c
		}
		if a == c || a == e || b == c || b == e {
			continue
		}
		k1 := [2]int32{min32(a, c), max32(a, c)}
		k2 := [2]int32{min32(b, e), max32(b, e)}
		if seen[k1] || seen[k2] {
			continue
		}
		delete(seen, [2]int32{min32(a, b), max32(a, b)})
		delete(seen, [2]int32{min32(c, e), max32(c, e)})
		seen[k1] = true
		seen[k2] = true
		edges[i] = edge{a, c}
		edges[j] = edge{b, e}
	}
	bld := graph.NewBuilder(n)
	for _, e := range edges {
		bld.AddEdge(int(e.u), int(e.v))
	}
	return bld.Build()
}

// RandomTree returns a uniformly random labelled tree on n nodes via a
// random Prüfer sequence.
func RandomTree(n int, seed uint64) *graph.Graph {
	if n <= 1 {
		return graph.NewBuilder(n).MustBuild()
	}
	if n == 2 {
		b := graph.NewBuilder(2)
		b.AddEdge(0, 1)
		return b.MustBuild()
	}
	r := rng(seed)
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = r.IntN(n)
	}
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for _, v := range prufer {
		deg[v]++
	}
	b := graph.NewBuilder(n)
	// Prüfer decoding with a min-heap of current leaves.
	var leaves intHeap
	for v := 0; v < n; v++ {
		if deg[v] == 1 {
			leaves.push(v)
		}
	}
	for _, v := range prufer {
		leaf := leaves.pop()
		b.AddEdge(leaf, v)
		deg[leaf]--
		deg[v]--
		if deg[v] == 1 {
			leaves.push(v)
		}
	}
	last0 := leaves.pop()
	last1 := leaves.pop()
	b.AddEdge(last0, last1)
	return b.MustBuild()
}

// UnionOfForests returns a graph on n nodes that is the union of k
// independently sampled random spanning trees, after de-duplication. By
// construction its arboricity is at most k (Definition 1), which makes it
// the certified workload for Theorem 3 experiments.
func UnionOfForests(n, k int, seed uint64) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < k; i++ {
		t := RandomTree(n, seed+uint64(i)*0x51ed2701)
		for v := 0; v < n; v++ {
			for _, u := range t.Neighbors(v) {
				if int(u) > v {
					b.AddEdge(v, int(u))
				}
			}
		}
	}
	return b.MustBuild()
}

// Apollonian returns a random Apollonian network (stacked triangulation) on
// n >= 3 nodes: start from a triangle and repeatedly insert a node inside a
// uniformly random face, connecting it to the face's three corners. The
// result is a maximal planar graph, hence has arboricity at most 3, while
// its maximum degree grows unboundedly — exactly the α ≪ Δ regime where
// Theorem 3 beats the Δ-based algorithms.
func Apollonian(n int, seed uint64) *graph.Graph {
	if n < 3 {
		n = 3
	}
	r := rng(seed)
	b := graph.NewBuilder(n)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	faces := [][3]int{{0, 1, 2}}
	for v := 3; v < n; v++ {
		i := r.IntN(len(faces))
		f := faces[i]
		b.AddEdge(v, f[0])
		b.AddEdge(v, f[1])
		b.AddEdge(v, f[2])
		faces[i] = [3]int{f[0], f[1], v}
		faces = append(faces, [3]int{f[0], f[2], v}, [3]int{f[1], f[2], v})
	}
	return b.MustBuild()
}

// Caterpillar returns a caterpillar tree: a spine path of length spine with
// legs leaves attached to each spine node. Arboricity 1, maximum degree
// legs+2.
func Caterpillar(spine, legs int) *graph.Graph {
	n := spine * (1 + legs)
	b := graph.NewBuilder(n)
	for s := 0; s+1 < spine; s++ {
		b.AddEdge(s, s+1)
	}
	next := spine
	for s := 0; s < spine; s++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(s, next)
			next++
		}
	}
	return b.MustBuild()
}

// ChungLu returns a Chung–Lu random graph with a power-law expected degree
// sequence with exponent gamma (>2) and expected max degree maxDeg.
func ChungLu(n int, gamma float64, maxDeg int, seed uint64) *graph.Graph {
	r := rng(seed)
	w := make([]float64, n)
	var sum float64
	for i := range w {
		// Inverse-CDF sampling of a truncated Pareto.
		u := r.Float64()
		w[i] = math.Pow(u, -1/(gamma-1))
		if w[i] > float64(maxDeg) {
			w[i] = float64(maxDeg)
		}
		sum += w[i]
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := w[u] * w[v] / sum
			if p > 1 {
				p = 1
			}
			if r.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// PowerLaw returns a Chung–Lu random graph with the same truncated-Pareto
// expected degree sequence as ChungLu, generated with the Miller–Hagberg
// skipping algorithm in O(n + m) expected time instead of ChungLu's O(n²)
// Bernoulli sweep. It exists for the 10⁶–10⁷ node degree-skew benchmarks,
// where the quadratic sweep is unusable; ChungLu is kept unchanged so that
// instances pinned by earlier experiments stay bit-identical.
//
// Weights are sorted descending, so hub nodes cluster at the low indices —
// exactly the ID-clustered skew the simulator's chunking has to survive.
func PowerLaw(n int, gamma float64, maxDeg int, seed uint64) *graph.Graph {
	r := rng(seed)
	w := make([]float64, n)
	var sum float64
	for i := range w {
		u := r.Float64()
		w[i] = math.Pow(u, -1/(gamma-1))
		if w[i] > float64(maxDeg) {
			w[i] = float64(maxDeg)
		}
		sum += w[i]
	}
	// Descending weights let the skip sampler bound p by the running
	// maximum: for fixed u, p(u,v) = w[u]·w[v]/S is non-increasing in v.
	slices.SortFunc(w, func(a, b float64) int {
		switch {
		case a > b:
			return -1
		case a < b:
			return 1
		default:
			return 0
		}
	})
	b := graph.NewBuilder(n)
	for u := 0; u < n-1; u++ {
		v := u + 1
		p := w[u] * w[v] / sum
		if p > 1 {
			p = 1
		}
		for v < n && p > 0 {
			if p < 1 {
				// Geometric skip over the run of probability-p trials.
				v += int(math.Floor(math.Log(1-r.Float64()) / math.Log1p(-p)))
			}
			if v >= n {
				break
			}
			// Accept with the true probability at the landing index,
			// normalized by the bounding p (q/p ≤ 1 by the sort order).
			q := w[u] * w[v] / sum
			if q > 1 {
				q = 1
			}
			if r.Float64() < q/p {
				b.AddEdge(u, v)
			}
			p = q
			v++
		}
	}
	return b.MustBuild()
}

// CycleOfCliques returns the Section 7 lower-bound graph C1: n0 cliques
// D(v_1)..D(v_n0) of n1 nodes each, arranged in a cycle with a complete
// biclique between adjacent cliques. Node (i, j) has index i*n1+j and
// identifier i*n1+j+1, the paper's "concatenation of the ID for u_i in C
// and the number j" realized compactly so identifiers stay within
// log(n0*n1) bits.
func CycleOfCliques(n0, n1 int) *graph.Graph {
	n := n0 * n1
	b := graph.NewBuilder(n)
	at := func(i, j int) int { return i*n1 + j }
	for i := 0; i < n0; i++ {
		for j := 0; j < n1; j++ {
			v := at(i, j)
			b.SetID(v, uint64(v+1))
			for j2 := j + 1; j2 < n1; j2++ {
				b.AddEdge(v, at(i, j2)) // intra-clique
			}
			if n0 > 1 {
				next := (i + 1) % n0
				if next != i {
					for j2 := 0; j2 < n1; j2++ {
						b.AddEdge(v, at(next, j2)) // biclique to next clique
					}
				}
			}
		}
	}
	return b.MustBuild()
}

// CliqueIndex returns the cycle position of a cycle-of-cliques node.
func CliqueIndex(v, n1 int) int { return v / n1 }

// StarOfCliques returns the high-variance instance used to reproduce the
// paper's Section 1 observation that the one-round ranking algorithm's
// w(V)/(Δ+1) guarantee holds only in expectation: one heavy hub clique of
// size h carrying almost all the weight, plus many unit-weight pendant
// nodes. A single clique winner takes all the weight, so the output weight
// has enormous variance.
func StarOfCliques(h, pendants int, hubWeight int64) *graph.Graph {
	n := h + pendants
	b := graph.NewBuilder(n)
	for u := 0; u < h; u++ {
		b.SetWeight(u, hubWeight)
		for v := u + 1; v < h; v++ {
			b.AddEdge(u, v)
		}
	}
	for p := h; p < n; p++ {
		b.SetWeight(p, 1)
		b.AddEdge(p%h, p)
	}
	return b.MustBuild()
}

// PlantedIS returns a graph with a *planted* independent set: the first
// plantedSize nodes form an independent set carrying weight plantedWeight
// each, while the remaining nodes get unit weight and random edges with
// probability p (among themselves and towards the planted set). Because
// OPT ≥ plantedSize·plantedWeight by construction, the instance certifies
// approximation ratios at scales where exact search is impossible. The
// planted membership is returned alongside the graph.
func PlantedIS(n, plantedSize int, plantedWeight int64, p float64, seed uint64) (*graph.Graph, []bool) {
	if plantedSize > n {
		plantedSize = n
	}
	r := rng(seed)
	b := graph.NewBuilder(n)
	planted := make([]bool, n)
	for v := 0; v < plantedSize; v++ {
		planted[v] = true
		b.SetWeight(v, plantedWeight)
	}
	for v := plantedSize; v < n; v++ {
		b.SetWeight(v, 1)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if planted[u] && planted[v] {
				continue // keep the planted set independent
			}
			if r.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	// Shuffle identifiers so the planted set is not detectable from IDs.
	perm := r.Perm(n)
	for v := 0; v < n; v++ {
		b.SetID(v, uint64(perm[v]+1))
	}
	return b.MustBuild(), planted
}

// intHeap is a minimal binary min-heap of ints used by Prüfer decoding.
type intHeap struct{ a []int }

func (h *intHeap) push(v int) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.a[l] < h.a[smallest] {
			smallest = l
		}
		if r < last && h.a[r] < h.a[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
	return top
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
