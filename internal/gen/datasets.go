package gen

import (
	"fmt"

	"frontier/internal/graph"
	"frontier/internal/xrand"
)

// Dataset bundles a named graph with optional group labels, standing in
// for one of the paper's Table-1 snapshots.
type Dataset struct {
	Name   string
	Graph  *graph.Graph
	Groups *graph.GroupLabels
}

// Scale multiplies the default dataset sizes. The defaults are ~20–40×
// smaller than the paper's snapshots so that full Monte Carlo sweeps run
// on a laptop; Scale > 1 approaches the original sizes.
type Scale float64

func (s Scale) size(base int) int {
	n := int(float64(base) * float64(s))
	if n < 64 {
		n = 64
	}
	return n
}

// tailCap bounds a power-law support's upper end, keeping it valid at
// tiny scales where coreN/x could fall below kmin.
func tailCap(kmin, cap int) int {
	if cap <= kmin {
		return kmin + 1
	}
	return cap
}

// FlickrLike builds the Flickr stand-in. Structure, mirroring the real
// snapshot: a directed power-law core (α≈1.75) holding 40% of the
// vertices, a large low-degree periphery (pendant trees and chains —
// over half of Flickr's users have in-degree ≤ 1; the chains give the
// slow-mixing regions that trap short walks), and ~5.3% of vertices in
// small disconnected fragments. Planted special-interest groups have
// Zipf popularity and degree-correlated membership (~21% of users in ≥1
// group). Paper reference: |V| = 1,715,255, LCC = 94.7%, avg degree
// 12.2, wmax = 2232.
func FlickrLike(r *xrand.Rand, scale Scale) Dataset {
	n := scale.size(40000)
	lccN := int(float64(n) * 0.947)
	coreN := int(float64(n) * 0.40)
	core := DirectedConfigModel(r, coreN, 2.3, 4, tailCap(4, coreN/8))
	lcc := AttachPeriphery(r, core, lccN, DefaultPeriphery())
	g := WithSmallComponents(r, lcc, n, DefaultSmallComponents())
	groups := PlantGroups(r, g, 250, int(0.30*float64(n)), 1.1)
	return Dataset{Name: "flickr-like", Graph: g, Groups: groups}
}

// LiveJournalLike builds the LiveJournal stand-in: denser core, smaller
// periphery, LCC ≈ 99.7% of vertices. Paper reference: |V| = 5,204,176,
// LCC = 99.7%, avg degree 14.6, wmax = 1029.
func LiveJournalLike(r *xrand.Rand, scale Scale) Dataset {
	n := scale.size(50000)
	lccN := int(float64(n) * 0.997)
	coreN := int(float64(n) * 0.50)
	core := DirectedConfigModel(r, coreN, 2.3, 4, tailCap(4, coreN/12))
	lcc := AttachPeriphery(r, core, lccN, DefaultPeriphery())
	g := WithSmallComponents(r, lcc, n, SmallComponentsConfig{MinSize: 2, MaxSize: 6, ExtraEdgeProb: 0.1})
	return Dataset{Name: "lj-like", Graph: g}
}

// YouTubeLike builds the YouTube stand-in: sparser core with a heavy
// periphery, LCC ≈ 99.7%. Paper reference: |V| = 1,138,499, avg degree
// 8.7, wmax = 3305.
func YouTubeLike(r *xrand.Rand, scale Scale) Dataset {
	n := scale.size(30000)
	lccN := int(float64(n) * 0.997)
	coreN := int(float64(n) * 0.40)
	core := DirectedConfigModel(r, coreN, 2.4, 3, tailCap(3, coreN/6))
	lcc := AttachPeriphery(r, core, lccN, PeripheryConfig{ChainFrac: 0.2, ChainMin: 10, ChainMax: 40, TreeMax: 4})
	g := WithSmallComponents(r, lcc, n, SmallComponentsConfig{MinSize: 2, MaxSize: 8, ExtraEdgeProb: 0.1})
	return Dataset{Name: "youtube-like", Graph: g}
}

// InternetRLTLike builds the router-level traceroute stand-in: a
// preferential-attachment core carrying long pendant path segments — the
// structure traceroute measurement graphs actually have (sequences of
// routers appear as chains). Average degree ≈ 3.2. Paper reference:
// |V| = 192,244, avg degree 3.2, wmax = 335.
func InternetRLTLike(r *xrand.Rand, scale Scale) Dataset {
	n := scale.size(20000)
	coreN := n / 2
	core := mixedBarabasiAlbert(r, coreN, []int{1, 2, 3}, []float64{0.3, 0.4, 0.3})
	g := AttachPeriphery(r, core, n, PeripheryConfig{ChainFrac: 0.6, ChainMin: 15, ChainMax: 50, TreeMax: 3})
	return Dataset{Name: "internet-rlt-like", Graph: g}
}

// HepThLike builds a citation-network stand-in (Appendix B uses Hep-Th):
// directed preferential attachment where each new paper cites 5 earlier
// papers chosen preferentially by citation count, with a periphery of
// sparsely cited chains (survey → reply → errata sequences).
func HepThLike(r *xrand.Rand, scale Scale) Dataset {
	n := scale.size(10000)
	coreN := int(float64(n) * 0.8)
	core := citationGraph(r, coreN, 5)
	g := AttachPeriphery(r, core, n, PeripheryConfig{ChainFrac: 0.5, ChainMin: 10, ChainMax: 30, TreeMax: 3})
	return Dataset{Name: "hepth-like", Graph: g}
}

// GABDataset builds the paper's GAB stress graph as a Dataset. Scale 1
// uses 5×10^4 vertices per side (paper: 5×10^5).
func GABDataset(r *xrand.Rand, scale Scale) Dataset {
	nEach := scale.size(50000)
	return Dataset{Name: "GAB", Graph: GAB(r, nEach)}
}

// ByName builds the named dataset. Known names: flickr, livejournal (lj),
// youtube, internet-rlt, hepth, gab.
func ByName(name string, r *xrand.Rand, scale Scale) (Dataset, error) {
	switch name {
	case "flickr", "flickr-like":
		return FlickrLike(r, scale), nil
	case "livejournal", "lj", "lj-like":
		return LiveJournalLike(r, scale), nil
	case "youtube", "youtube-like":
		return YouTubeLike(r, scale), nil
	case "internet-rlt", "internet-rlt-like", "internet":
		return InternetRLTLike(r, scale), nil
	case "hepth", "hepth-like", "hep-th":
		return HepThLike(r, scale), nil
	case "gab", "GAB":
		return GABDataset(r, scale), nil
	default:
		return Dataset{}, fmt.Errorf("gen: unknown dataset %q", name)
	}
}

// AllNames lists the canonical dataset names ByName accepts.
func AllNames() []string {
	return []string{"flickr-like", "lj-like", "youtube-like", "internet-rlt-like", "hepth-like", "gab"}
}

// mixedBarabasiAlbert is Barabási–Albert attachment where each new vertex
// draws its attachment count m from ms with the given probabilities.
func mixedBarabasiAlbert(r *xrand.Rand, n int, ms []int, probs []float64) *graph.Graph {
	maxM := 0
	for _, m := range ms {
		if m > maxM {
			maxM = m
		}
	}
	b := graph.NewBuilder(n)
	endpoints := make([]int32, 0, 4*n)
	for u := 0; u <= maxM; u++ {
		for v := u + 1; v <= maxM; v++ {
			b.AddUndirected(u, v)
			endpoints = append(endpoints, int32(u), int32(v))
		}
	}
	chosen := make(map[int32]bool, maxM)
	targets := make([]int32, 0, maxM)
	for v := maxM + 1; v < n; v++ {
		m := ms[len(ms)-1]
		x := r.Float64()
		for i, p := range probs {
			if x < p {
				m = ms[i]
				break
			}
			x -= p
		}
		for id := range chosen {
			delete(chosen, id)
		}
		targets = targets[:0]
		for len(chosen) < m {
			t := endpoints[r.Intn(len(endpoints))]
			if !chosen[t] {
				chosen[t] = true
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			b.AddUndirected(v, int(t))
			endpoints = append(endpoints, int32(v), t)
		}
	}
	return b.Build()
}

// citationGraph grows a directed acyclic citation network: vertex v cites
// m earlier vertices chosen preferentially by in-degree (plus one to keep
// the symmetric view connected).
func citationGraph(r *xrand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n)
	endpoints := make([]int32, 0, 2*m*n)
	b.AddEdge(1, 0)
	endpoints = append(endpoints, 0, 1)
	chosen := make(map[int32]bool, m)
	targets := make([]int32, 0, m)
	for v := 2; v < n; v++ {
		for id := range chosen {
			delete(chosen, id)
		}
		targets = targets[:0]
		k := m
		if v < m {
			k = v
		}
		// Always cite the previous vertex so the symmetric view stays
		// connected, then add preferential citations.
		chosen[int32(v-1)] = true
		targets = append(targets, int32(v-1))
		for len(chosen) < k {
			t := endpoints[r.Intn(len(endpoints))]
			if !chosen[t] {
				chosen[t] = true
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			b.AddEdge(v, int(t))
			endpoints = append(endpoints, t, int32(v))
		}
	}
	return b.Build()
}
