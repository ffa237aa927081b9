package graph

import (
	"math"
	"testing"
	"testing/quick"

	"frontier/internal/xrand"
)

// triangle returns the directed 3-cycle 0→1→2→0.
func triangle() *Graph {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	return b.Build()
}

// path returns the undirected path 0–1–2–3.
func path4() *Graph {
	b := NewBuilder(4)
	b.AddUndirected(0, 1)
	b.AddUndirected(1, 2)
	b.AddUndirected(2, 3)
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	g := triangle()
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumDirectedEdges() != 3 {
		t.Fatalf("NumDirectedEdges = %d", g.NumDirectedEdges())
	}
	// Symmetric view of a directed 3-cycle is the undirected triangle: 6
	// ordered pairs.
	if g.NumSymEdges() != 6 {
		t.Fatalf("NumSymEdges = %d, want 6", g.NumSymEdges())
	}
	for v := 0; v < 3; v++ {
		if g.SymDegree(v) != 2 {
			t.Fatalf("SymDegree(%d) = %d, want 2", v, g.SymDegree(v))
		}
		if g.OutDegree(v) != 1 || g.InDegree(v) != 1 {
			t.Fatalf("directed degrees of %d: out=%d in=%d", v, g.OutDegree(v), g.InDegree(v))
		}
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.NumDirectedEdges() != 1 {
		t.Fatalf("duplicates not removed: %d edges", g.NumDirectedEdges())
	}
}

func TestBuilderSelfLoopIgnored(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.NumDirectedEdges() != 1 {
		t.Fatalf("self loop kept: %d edges", g.NumDirectedEdges())
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestMutualEdgeSymmetricOnce(t *testing.T) {
	// (u,v) and (v,u) both in Ed must yield exactly one undirected
	// adjacency, per the set-union definition of E in Section 2.
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g := b.Build()
	if g.NumSymEdges() != 2 {
		t.Fatalf("NumSymEdges = %d, want 2", g.NumSymEdges())
	}
	if g.SymDegree(0) != 1 || g.SymDegree(1) != 1 {
		t.Fatalf("sym degrees: %d, %d", g.SymDegree(0), g.SymDegree(1))
	}
}

func TestNeighborsSortedAndQueries(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 0)
	g := b.Build()
	out := g.OutNeighbors(0)
	for i := 1; i < len(out); i++ {
		if out[i-1] >= out[i] {
			t.Fatalf("out-adjacency not sorted: %v", out)
		}
	}
	if !g.HasDirectedEdge(0, 2) || g.HasDirectedEdge(2, 0) {
		t.Fatal("HasDirectedEdge wrong")
	}
	if !g.HasSymEdge(2, 0) || !g.HasSymEdge(0, 1) {
		t.Fatal("HasSymEdge wrong")
	}
	if g.HasSymEdge(2, 3) {
		t.Fatal("HasSymEdge found absent edge")
	}
	// Symmetric neighbors of 0: {1,2,3,4}.
	if g.SymDegree(0) != 4 {
		t.Fatalf("SymDegree(0) = %d", g.SymDegree(0))
	}
	for i := 0; i < 4; i++ {
		if got := g.SymNeighbor(0, i); got != i+1 {
			t.Fatalf("SymNeighbor(0,%d) = %d", i, got)
		}
	}
}

func TestVolume(t *testing.T) {
	g := path4()
	if got := g.Volume(nil); got != 6 {
		t.Fatalf("vol(V) = %d, want 6", got)
	}
	if got := g.Volume([]int{0, 3}); got != 2 {
		t.Fatalf("vol({0,3}) = %d, want 2", got)
	}
	if got := g.Volume([]int{1, 2}); got != 4 {
		t.Fatalf("vol({1,2}) = %d, want 4", got)
	}
}

func TestSharedNeighborsAndTriangles(t *testing.T) {
	// K4: every pair shares the other two vertices; each vertex is in 3
	// triangles.
	b := NewBuilder(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddUndirected(u, v)
		}
	}
	g := b.Build()
	if got := g.SharedNeighbors(0, 1); got != 2 {
		t.Fatalf("SharedNeighbors(0,1) = %d, want 2", got)
	}
	for v := 0; v < 4; v++ {
		if got := g.Triangles(v); got != 3 {
			t.Fatalf("Triangles(%d) = %d, want 3", v, got)
		}
	}
	// Path has no triangles.
	p := path4()
	for v := 0; v < 4; v++ {
		if p.Triangles(v) != 0 {
			t.Fatalf("path triangle at %d", v)
		}
	}
}

func TestEdgeAt(t *testing.T) {
	g := triangle()
	seen := make(map[Edge]bool)
	for i := 0; i < g.NumSymEdges(); i++ {
		seen[g.SymEdgeAt(i)] = true
	}
	if len(seen) != 6 {
		t.Fatalf("SymEdgeAt enumerated %d distinct edges, want 6", len(seen))
	}
	for _, e := range []Edge{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 0}, {0, 2}} {
		if !seen[e] {
			t.Fatalf("missing edge %v", e)
		}
	}
	dseen := make(map[Edge]bool)
	for i := 0; i < g.NumDirectedEdges(); i++ {
		dseen[g.DirectedEdgeAt(i)] = true
	}
	for _, e := range []Edge{{0, 1}, {1, 2}, {2, 0}} {
		if !dseen[e] {
			t.Fatalf("missing directed edge %v", e)
		}
	}
}

func TestEdgeIterationMatchesEdgeAt(t *testing.T) {
	g := path4()
	var fromIter []Edge
	g.SymEdges(func(u, v int32) { fromIter = append(fromIter, Edge{u, v}) })
	for i, e := range fromIter {
		if got := g.SymEdgeAt(i); got != e {
			t.Fatalf("SymEdgeAt(%d) = %v, want %v", i, got, e)
		}
	}
}

func TestComponents(t *testing.T) {
	// Two components: triangle {0,1,2} and edge {3,4}; isolated 5 has no
	// edges — but builders require ≥1 edge per vertex in paper's model;
	// the implementation still treats it as its own component.
	b := NewBuilder(6)
	b.AddUndirected(0, 1)
	b.AddUndirected(1, 2)
	b.AddUndirected(0, 2)
	b.AddUndirected(3, 4)
	g := b.Build()
	comp, sizes := g.Components()
	if len(sizes) != 3 {
		t.Fatalf("components = %d, want 3", len(sizes))
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("triangle split across components")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Fatal("edge component wrong")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatal("isolated vertex merged into another component")
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	lcc := g.LargestComponent()
	if len(lcc) != 3 {
		t.Fatalf("LCC size = %d, want 3", len(lcc))
	}
}

func TestInducedSubgraphAndLCC(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(4, 5)
	g := b.Build()
	sub, newToOld := g.LCC()
	if sub.NumVertices() != 3 {
		t.Fatalf("LCC vertices = %d", sub.NumVertices())
	}
	if sub.NumDirectedEdges() != 3 {
		t.Fatalf("LCC directed edges = %d", sub.NumDirectedEdges())
	}
	for i, old := range newToOld {
		if old != i { // LCC of this graph is vertices 0,1,2
			t.Fatalf("newToOld[%d] = %d", i, old)
		}
	}
	if !sub.IsConnected() {
		t.Fatal("LCC not connected")
	}
}

func TestInducedSubgraphDropsCrossEdges(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	sub, newToOld := g.InducedSubgraph([]int{0, 1, 3})
	if sub.NumDirectedEdges() != 1 {
		t.Fatalf("induced edges = %d, want 1 (0→1)", sub.NumDirectedEdges())
	}
	if len(newToOld) != 3 {
		t.Fatalf("mapping size = %d", len(newToOld))
	}
}

func TestBipartite(t *testing.T) {
	if !path4().IsBipartite() {
		t.Fatal("path reported non-bipartite")
	}
	if triangle().IsBipartite() {
		t.Fatal("triangle reported bipartite")
	}
	// Even cycle is bipartite.
	b := NewBuilder(4)
	b.AddUndirected(0, 1)
	b.AddUndirected(1, 2)
	b.AddUndirected(2, 3)
	b.AddUndirected(3, 0)
	if !b.Build().IsBipartite() {
		t.Fatal("4-cycle reported non-bipartite")
	}
}

func TestDegreeDistributionAndCCDF(t *testing.T) {
	g := path4() // degrees 1,2,2,1
	theta := g.DegreeDistribution(SymDeg)
	want := []float64{0, 0.5, 0.5}
	if len(theta) != len(want) {
		t.Fatalf("theta = %v", theta)
	}
	for i := range want {
		if math.Abs(theta[i]-want[i]) > 1e-12 {
			t.Fatalf("theta[%d] = %v, want %v", i, theta[i], want[i])
		}
	}
	gamma := CCDF(theta)
	wantG := []float64{1, 0.5, 0}
	for i := range wantG {
		if math.Abs(gamma[i]-wantG[i]) > 1e-12 {
			t.Fatalf("gamma[%d] = %v, want %v", i, gamma[i], wantG[i])
		}
	}
}

func TestDegreeDistributionSums(t *testing.T) {
	// Property: distributions sum to 1 on random graphs.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 20 + r.Intn(50)
		b := NewBuilder(n)
		m := n * 2
		for i := 0; i < m; i++ {
			b.AddEdge(r.Intn(n), r.Intn(n))
		}
		g := b.Build()
		for _, kind := range []DegreeKind{InDeg, OutDeg, SymDeg} {
			var sum float64
			for _, th := range g.DegreeDistribution(kind) {
				sum += th
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAssortativityStar(t *testing.T) {
	// Undirected star: center degree n-1, leaves degree 1 → strongly
	// disassortative (r = -1 for a star).
	n := 10
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddUndirected(0, v)
	}
	g := b.Build()
	r := g.AssortativityUndirected()
	if r >= 0 || math.Abs(r-(-1)) > 1e-9 {
		t.Fatalf("star assortativity = %v, want -1", r)
	}
}

func TestAssortativityPerfect(t *testing.T) {
	// Disjoint union of two cliques of different sizes: within each edge,
	// deg(u) = deg(v), so r = +1.
	b := NewBuilder(7)
	for u := 0; u < 3; u++ {
		for v := u + 1; v < 3; v++ {
			b.AddUndirected(u, v)
		}
	}
	for u := 3; u < 7; u++ {
		for v := u + 1; v < 7; v++ {
			b.AddUndirected(u, v)
		}
	}
	g := b.Build()
	r := g.AssortativityUndirected()
	if math.Abs(r-1) > 1e-9 {
		t.Fatalf("two-clique assortativity = %v, want 1", r)
	}
}

func TestAssortativityDegenerate(t *testing.T) {
	// Single clique: all degrees equal → σ = 0 → NaN.
	b := NewBuilder(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddUndirected(u, v)
		}
	}
	if r := b.Build().AssortativityUndirected(); !math.IsNaN(r) {
		t.Fatalf("clique assortativity = %v, want NaN", r)
	}
}

func TestGlobalClustering(t *testing.T) {
	// Triangle: every vertex has c(v)=1 → C=1.
	if c := triangle().GlobalClustering(); math.Abs(c-1) > 1e-12 {
		t.Fatalf("triangle C = %v", c)
	}
	// Path: interior vertices have deg 2 and no triangle → C=0. Endpoint
	// vertices are excluded from V*.
	if c := path4().GlobalClustering(); c != 0 {
		t.Fatalf("path C = %v", c)
	}
	// Triangle with a pendant: deg(0)=3 with 1 triangle → c=1/3;
	// vertices 1,2 have c=1; pendant excluded. C = (1/3+1+1)/3.
	b := NewBuilder(4)
	b.AddUndirected(0, 1)
	b.AddUndirected(1, 2)
	b.AddUndirected(0, 2)
	b.AddUndirected(0, 3)
	g := b.Build()
	want := (1.0/3 + 1 + 1) / 3
	if c := g.GlobalClustering(); math.Abs(c-want) > 1e-12 {
		t.Fatalf("pendant-triangle C = %v, want %v", c, want)
	}
}

func TestSummarize(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 4)
	g := b.Build()
	s := g.Summarize("toy")
	if s.Name != "toy" || s.NumVertices != 5 || s.LCCSize != 3 || s.NumEdges != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Connected || s.NumComponents != 2 {
		t.Fatalf("summary connectivity = %+v", s)
	}
	if math.Abs(s.AvgDegree-8.0/5.0) > 1e-12 {
		t.Fatalf("AvgDegree = %v", s.AvgDegree)
	}
}

func TestMaxSymDegree(t *testing.T) {
	g := path4()
	d, v := g.MaxSymDegree()
	if d != 2 || (v != 1 && v != 2) {
		t.Fatalf("MaxSymDegree = (%d,%d)", d, v)
	}
	empty := NewBuilder(0).Build()
	if d, v := empty.MaxSymDegree(); d != 0 || v != -1 {
		t.Fatalf("empty MaxSymDegree = (%d,%d)", d, v)
	}
}

func TestSymViewConsistencyProperty(t *testing.T) {
	// Property: for random graphs, (1) symmetric adjacency is symmetric,
	// (2) sym degree equals the size of the union of in/out neighbor
	// sets, (3) vol(V) = NumSymEdges.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 5 + r.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(r.Intn(n), r.Intn(n))
		}
		g := b.Build()
		var vol int64
		for v := 0; v < n; v++ {
			vol += int64(g.SymDegree(v))
			union := make(map[int32]bool)
			for _, u := range g.OutNeighbors(v) {
				union[u] = true
			}
			for _, u := range g.InNeighbors(v) {
				union[u] = true
			}
			if g.SymDegree(v) != len(union) {
				return false
			}
			for _, u := range g.SymNeighbors(v) {
				if !g.HasSymEdge(int(u), v) {
					return false
				}
			}
		}
		return vol == int64(g.NumSymEdges())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestInOutDegreeSumProperty(t *testing.T) {
	// Property: Σ indeg = Σ outdeg = |Ed|.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 5 + r.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(r.Intn(n), r.Intn(n))
		}
		g := b.Build()
		var in, out int
		for v := 0; v < n; v++ {
			in += g.InDegree(v)
			out += g.OutDegree(v)
		}
		return in == g.NumDirectedEdges() && out == g.NumDirectedEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGroupLabels(t *testing.T) {
	gl := NewGroupLabels(3, [][]int32{
		{0, 1},
		{1},
		{},
		{2, 2, 0},
	})
	if gl.NumVertices() != 4 || gl.NumGroups() != 3 {
		t.Fatalf("sizes wrong: %d vertices, %d groups", gl.NumVertices(), gl.NumGroups())
	}
	if !gl.Has(0, 0) || !gl.Has(0, 1) || gl.Has(0, 2) {
		t.Fatal("Has wrong for vertex 0")
	}
	if gl.GroupSize(0) != 2 || gl.GroupSize(1) != 2 || gl.GroupSize(2) != 1 {
		t.Fatalf("group sizes: %d %d %d", gl.GroupSize(0), gl.GroupSize(1), gl.GroupSize(2))
	}
	if got := gl.Groups(3); len(got) != 2 {
		t.Fatalf("dedup failed: %v", got)
	}
	if math.Abs(gl.Density(2)-0.25) > 1e-12 {
		t.Fatalf("Density(2) = %v", gl.Density(2))
	}
	if math.Abs(gl.LabeledFraction()-0.75) > 1e-12 {
		t.Fatalf("LabeledFraction = %v", gl.LabeledFraction())
	}
}

func TestGroupLabelsByPopularity(t *testing.T) {
	gl := NewGroupLabels(3, [][]int32{{2}, {2}, {2, 0}, {0}, {1}})
	order := gl.ByPopularity()
	if order[0] != 2 || order[1] != 0 || order[2] != 1 {
		t.Fatalf("ByPopularity = %v", order)
	}
}

func TestGroupLabelsRemap(t *testing.T) {
	gl := NewGroupLabels(2, [][]int32{{0}, {1}, {0, 1}})
	remapped := gl.Remap([]int{2, 0})
	if remapped.NumVertices() != 2 {
		t.Fatalf("remapped vertices = %d", remapped.NumVertices())
	}
	if !remapped.Has(0, 0) || !remapped.Has(0, 1) {
		t.Fatal("remapped vertex 0 should be old vertex 2")
	}
	if !remapped.Has(1, 0) || remapped.Has(1, 1) {
		t.Fatal("remapped vertex 1 should be old vertex 0")
	}
	if remapped.GroupSize(1) != 1 {
		t.Fatalf("remapped GroupSize(1) = %d", remapped.GroupSize(1))
	}
}

func TestGroupLabelsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGroupLabels(1, [][]int32{{1}})
}

func TestDegreeKindString(t *testing.T) {
	if InDeg.String() != "in" || OutDeg.String() != "out" || SymDeg.String() != "sym" {
		t.Fatal("DegreeKind strings wrong")
	}
	if DegreeKind(99).String() != "unknown" {
		t.Fatal("unknown DegreeKind string wrong")
	}
}

func TestSymRangeMatchesSymNeighbor(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 0)
	g := b.Build()
	var total int64
	for v := 0; v < g.NumVertices(); v++ {
		lo, hi := g.SymRange(v)
		if lo != total {
			t.Fatalf("SymRange(%d) lo = %d, want contiguous offset %d", v, lo, total)
		}
		if int(hi-lo) != g.SymDegree(v) {
			t.Fatalf("SymRange(%d) spans %d, SymDegree %d", v, hi-lo, g.SymDegree(v))
		}
		for j := 0; j < g.SymDegree(v); j++ {
			if got, want := g.SymNeighborAt(lo+int64(j)), g.SymNeighbor(v, j); got != want {
				t.Fatalf("SymNeighborAt(%d) = %d, SymNeighbor(%d,%d) = %d", lo+int64(j), got, v, j, want)
			}
		}
		total = hi
	}
	if want := int64(g.NumSymEdges()); total != want {
		t.Fatalf("ranges cover %d slots, want |E| = %d", total, want)
	}
}
