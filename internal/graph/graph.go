// Package graph implements the labeled directed graph substrate the paper
// samples from, together with its symmetric counterpart.
//
// The paper (Section 2) models a network as a labeled directed graph
// Gd = (V, Ed) and assumes a random walker can retrieve both the incoming
// and outgoing edges of a queried vertex, which lets it walk the symmetric
// counterpart G = (V, E) with E = ∪_{(u,v)∈Ed} {(u,v),(v,u)}. This package
// stores both views in compressed sparse row (CSR) form: the directed view
// supplies vertex labels (in-degree, out-degree) and the edge subset E* = Ed
// used by the assortativity estimator, while the symmetric view drives every
// random walk and defines deg(v) and vol(S).
//
// The package also computes exact (ground truth) graph characteristics —
// degree distributions, assortative mixing coefficient, global clustering
// coefficient, connected components — against which the sampling estimators
// are scored.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a directed edge from U to V.
type Edge struct {
	U, V int32
}

// Graph is an immutable labeled directed graph plus its symmetric
// counterpart. Construct one with NewBuilder/Build or the generators in
// internal/gen. All slices are private; access goes through methods so the
// representation can stay CSR-packed.
type Graph struct {
	n int

	// Directed view (Gd), deduplicated, sorted adjacency.
	outOff []int64
	outTo  []int32
	inOff  []int64
	inTo   []int32

	// Symmetric view (G): union of in- and out-neighbors, deduplicated,
	// sorted. deg(v) in the paper is symDeg(v).
	symOff []int64
	symTo  []int32
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumDirectedEdges returns |Ed| after deduplication.
func (g *Graph) NumDirectedEdges() int { return len(g.outTo) }

// NumSymEdges returns |E| of the symmetric counterpart, counting each
// ordered pair, i.e. |E| = 2 × (number of undirected adjacencies).
func (g *Graph) NumSymEdges() int { return len(g.symTo) }

// NumUndirectedEdges returns the number of undirected adjacencies
// |E| / 2.
func (g *Graph) NumUndirectedEdges() int { return len(g.symTo) / 2 }

// OutDegree returns the out-degree of v in the directed graph Gd.
func (g *Graph) OutDegree(v int) int {
	return int(g.outOff[v+1] - g.outOff[v])
}

// InDegree returns the in-degree of v in the directed graph Gd.
func (g *Graph) InDegree(v int) int {
	return int(g.inOff[v+1] - g.inOff[v])
}

// SymDegree returns deg(v): the degree of v in the symmetric counterpart
// G. This is the degree every random walk uses.
func (g *Graph) SymDegree(v int) int {
	return int(g.symOff[v+1] - g.symOff[v])
}

// SymNeighbor returns the i-th neighbor of v in the symmetric view,
// 0 ≤ i < SymDegree(v). Neighbors are in ascending vertex order.
func (g *Graph) SymNeighbor(v, i int) int {
	return int(g.symTo[g.symOff[v]+int64(i)])
}

// SymRange returns the index range [lo, hi) of v's symmetric adjacency
// in the shared neighbor array addressed by SymNeighborAt, with
// hi-lo == SymDegree(v). Hot walk loops read the offset array once per
// step through this accessor instead of fabricating a slice header
// (SymNeighbors) or paying two separate offset lookups
// (SymDegree + SymNeighbor).
func (g *Graph) SymRange(v int) (lo, hi int64) {
	return g.symOff[v], g.symOff[v+1]
}

// SymNeighborAt returns the neighbor stored at global adjacency index
// i, SymRange-bounded: v's j-th neighbor is SymNeighborAt(lo+j) for
// lo, _ := SymRange(v).
func (g *Graph) SymNeighborAt(i int64) int {
	return int(g.symTo[i])
}

// PrefetchVertices implements crawl.BatchSource as a no-op: the whole
// graph is already in memory, so there is no latency to hide.
func (g *Graph) PrefetchVertices([]int) error { return nil }

// SymNeighbors returns the symmetric adjacency list of v. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) SymNeighbors(v int) []int32 {
	return g.symTo[g.symOff[v]:g.symOff[v+1]]
}

// OutNeighbors returns the directed out-adjacency of v (sorted). The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v int) []int32 {
	return g.outTo[g.outOff[v]:g.outOff[v+1]]
}

// InNeighbors returns the directed in-adjacency of v (sorted). The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v int) []int32 {
	return g.inTo[g.inOff[v]:g.inOff[v+1]]
}

// HasDirectedEdge reports whether (u,v) ∈ Ed.
func (g *Graph) HasDirectedEdge(u, v int) bool {
	adj := g.OutNeighbors(u)
	return containsSorted(adj, int32(v))
}

// HasSymEdge reports whether (u,v) ∈ E (symmetric view).
func (g *Graph) HasSymEdge(u, v int) bool {
	adj := g.SymNeighbors(u)
	return containsSorted(adj, int32(v))
}

func containsSorted(adj []int32, v int32) bool {
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Volume returns vol(S) = Σ_{v∈S} deg(v) over the symmetric view. A nil
// S means all of V, i.e. vol(V) = |E|.
func (g *Graph) Volume(s []int) int64 {
	if s == nil {
		return int64(len(g.symTo))
	}
	var vol int64
	for _, v := range s {
		vol += int64(g.SymDegree(v))
	}
	return vol
}

// SharedNeighbors returns f(v,u): the number of common neighbors of v and
// u in the symmetric view. The global clustering estimator (Section 4.2.4)
// evaluates this on every sampled edge.
func (g *Graph) SharedNeighbors(u, v int) int {
	a, b := g.SymNeighbors(u), g.SymNeighbors(v)
	// Merge-intersect two sorted lists.
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Triangles returns Δ(v): the number of triangles through v in the
// symmetric view.
func (g *Graph) Triangles(v int) int {
	adj := g.SymNeighbors(v)
	var t int
	for _, u := range adj {
		t += g.SharedNeighbors(v, int(u))
	}
	return t / 2
}

// DirectedEdges calls fn for every edge (u,v) ∈ Ed. Iteration order is by
// source vertex, then ascending target.
func (g *Graph) DirectedEdges(fn func(u, v int32)) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			fn(int32(u), v)
		}
	}
}

// SymEdges calls fn for every ordered pair (u,v) ∈ E.
func (g *Graph) SymEdges(fn func(u, v int32)) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.SymNeighbors(u) {
			fn(int32(u), v)
		}
	}
}

// SymEdgeAt returns the i-th ordered symmetric edge, 0 ≤ i < NumSymEdges,
// in the same order SymEdges visits them. Random edge sampling draws
// uniform indexes into this list.
func (g *Graph) SymEdgeAt(i int) Edge {
	u := int32(sort.Search(g.n, func(v int) bool { return g.symOff[v+1] > int64(i) }))
	return Edge{U: u, V: g.symTo[i]}
}

// SymEdgeOffset returns the index of vertex u's first ordered symmetric
// edge in the SymEdgeAt numbering; u's i-th edge is at SymEdgeOffset(u)+i.
func (g *Graph) SymEdgeOffset(u int) int {
	return int(g.symOff[u])
}

// DirectedEdgeAt returns the i-th directed edge, 0 ≤ i < NumDirectedEdges.
func (g *Graph) DirectedEdgeAt(i int) Edge {
	u := int32(sort.Search(g.n, func(v int) bool { return g.outOff[v+1] > int64(i) }))
	return Edge{U: u, V: g.outTo[i]}
}

// MaxSymDegree returns the largest symmetric degree in the graph and the
// vertex achieving it. Returns (0, -1) on an empty graph.
func (g *Graph) MaxSymDegree() (deg, vertex int) {
	deg, vertex = 0, -1
	for v := 0; v < g.n; v++ {
		if d := g.SymDegree(v); d > deg {
			deg, vertex = d, v
		}
	}
	return deg, vertex
}

// AverageSymDegree returns the mean symmetric degree |E| / |V|.
func (g *Graph) AverageSymDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(len(g.symTo)) / float64(g.n)
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{V=%d Ed=%d E=%d}", g.n, len(g.outTo), len(g.symTo))
}

// Builder accumulates directed edges and produces an immutable Graph.
// Duplicate edges and self-loops are dropped at Build time (the paper's
// graphs have neither; self-loops would make deg bookkeeping between the
// directed and symmetric view inconsistent).
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder creates a builder for a graph with n vertices, 0..n-1.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the directed edge (u,v). Out-of-range endpoints panic;
// self-loops are silently ignored.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.edges = append(b.edges, Edge{int32(u), int32(v)})
}

// AddUndirected records both (u,v) and (v,u).
func (b *Builder) AddUndirected(u, v int) {
	b.AddEdge(u, v)
	b.AddEdge(v, u)
}

// NumPendingEdges returns the number of edges added so far, before
// deduplication.
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build produces the immutable Graph. The builder may be reused afterward
// but keeps its edges; call Reset to clear.
func (b *Builder) Build() *Graph {
	g := &Graph{n: b.n}

	// Sort edges by (U,V) and deduplicate.
	es := make([]Edge, len(b.edges))
	copy(es, b.edges)
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	es = dedupe(es)

	g.outOff, g.outTo = buildCSR(b.n, es, false)
	g.inOff, g.inTo = buildCSR(b.n, es, true)

	// Symmetric edges: union of each edge and its reverse, deduplicated.
	sym := make([]Edge, 0, 2*len(es))
	for _, e := range es {
		sym = append(sym, e, Edge{e.V, e.U})
	}
	sort.Slice(sym, func(i, j int) bool {
		if sym[i].U != sym[j].U {
			return sym[i].U < sym[j].U
		}
		return sym[i].V < sym[j].V
	})
	sym = dedupe(sym)
	g.symOff, g.symTo = buildCSR(b.n, sym, false)
	return g
}

// Reset clears accumulated edges, keeping capacity.
func (b *Builder) Reset() { b.edges = b.edges[:0] }

func dedupe(es []Edge) []Edge {
	if len(es) == 0 {
		return es
	}
	w := 1
	for i := 1; i < len(es); i++ {
		if es[i] != es[w-1] {
			es[w] = es[i]
			w++
		}
	}
	return es[:w]
}

// buildCSR packs sorted, deduplicated edges into offset/target arrays.
// When reverse is true it indexes by target (building in-adjacency).
func buildCSR(n int, es []Edge, reverse bool) ([]int64, []int32) {
	off := make([]int64, n+1)
	to := make([]int32, len(es))
	key := func(e Edge) int32 {
		if reverse {
			return e.V
		}
		return e.U
	}
	val := func(e Edge) int32 {
		if reverse {
			return e.U
		}
		return e.V
	}
	for _, e := range es {
		off[key(e)+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	cursor := make([]int64, n)
	for _, e := range es {
		k := key(e)
		to[off[k]+cursor[k]] = val(e)
		cursor[k]++
	}
	// Each adjacency run must be sorted for binary search / intersection.
	for v := 0; v < n; v++ {
		run := to[off[v]:off[v+1]]
		if !int32sSorted(run) {
			sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
		}
	}
	return off, to
}

func int32sSorted(xs []int32) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			return false
		}
	}
	return true
}

// OutCSR returns the directed out-adjacency in raw CSR form: the
// offset array (length NumVertices+1) and the target array it indexes.
// Both alias internal storage and must not be modified; the .fcsr
// segment writer serializes them verbatim.
func (g *Graph) OutCSR() (off []int64, to []int32) { return g.outOff, g.outTo }

// InCSR returns the directed in-adjacency (the reverse view) in raw
// CSR form, under the same aliasing rules as OutCSR.
func (g *Graph) InCSR() (off []int64, to []int32) { return g.inOff, g.inTo }

// SymCSR returns the symmetric adjacency in raw CSR form, under the
// same aliasing rules as OutCSR. Hot walk loops that have type-asserted
// their source down to a CSR-backed graph use these arrays directly,
// replacing per-step interface dispatch with two array indexings.
func (g *Graph) SymCSR() (off []int64, to []int32) { return g.symOff, g.symTo }

// validateCSROff checks the structural invariants of one CSR view's
// offset array: length n+1, starts at 0, non-decreasing, and ends
// exactly at the target array's length. It deliberately does not read
// the target array, so validating a memory-mapped graph touches only
// the (small) offset pages, never the edge pages.
func validateCSROff(view string, n int, off []int64, lenTo int) error {
	if len(off) != n+1 {
		return fmt.Errorf("graph: %s offsets have length %d, want %d", view, len(off), n+1)
	}
	if off[0] != 0 {
		return fmt.Errorf("graph: %s offsets start at %d, want 0", view, off[0])
	}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return fmt.Errorf("graph: %s offsets decrease at vertex %d", view, v)
		}
	}
	if off[n] != int64(lenTo) {
		return fmt.Errorf("graph: %s offsets end at %d, want %d", view, off[n], lenTo)
	}
	return nil
}

// NewFromCSR constructs a Graph directly over caller-owned CSR arrays —
// the zero-copy constructor memory-mapped .fcsr segments load through.
// The three views are, in order: the directed out-adjacency (Gd), the
// directed in-adjacency (its reverse), and the symmetric union the
// walks use. The offset arrays are validated structurally (length n+1,
// monotone, consistent with their target arrays, |outTo| == |inTo|),
// but the target arrays are trusted: entries must be in [0,n) and each
// run sorted ascending, exactly as Builder.Build produces and the
// .fcsr readers verify (by full validation on the heap path, by
// checksums on the mapped path). The graph aliases the given slices
// and never mutates them; they must stay valid and unchanged for the
// graph's lifetime — for a mapped segment, until the mapping closes.
func NewFromCSR(n int, outOff []int64, outTo []int32, inOff []int64, inTo []int32, symOff []int64, symTo []int32) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if len(outTo) != len(inTo) {
		return nil, fmt.Errorf("graph: out/in target arrays disagree (%d vs %d edges)", len(outTo), len(inTo))
	}
	if err := validateCSROff("out", n, outOff, len(outTo)); err != nil {
		return nil, err
	}
	if err := validateCSROff("in", n, inOff, len(inTo)); err != nil {
		return nil, err
	}
	if err := validateCSROff("sym", n, symOff, len(symTo)); err != nil {
		return nil, err
	}
	return &Graph{
		n:      n,
		outOff: outOff, outTo: outTo,
		inOff: inOff, inTo: inTo,
		symOff: symOff, symTo: symTo,
	}, nil
}
