package main

import (
	"fmt"
	"math"
	"sync"
)

// The reference computations and answer checks. They share no code with
// the program: a plain CSR, a serial queue BFS and a serial float64 power
// iteration over the raw edge list.

const (
	// prDamping and prIterations are PageRank's parameters, as the
	// program's PageRank() constructor documents them.
	prDamping    = 0.85
	prIterations = 10
	// rankTolerance is the relative difference a PageRank answer may show
	// against the reference: the two sum the same float64 terms in
	// different orders, which moves results by a few ulps, far below it.
	rankTolerance = 1e-9
	// unreached marks an unreached vertex in a compact level array.
	unreached = math.MaxUint8
)

// csr is a compressed sparse row adjacency: the neighbours of v are
// adj[off[v]:off[v+1]].
type csr struct {
	off []uint32
	adj []uint32
}

func (c *csr) neighbours(v uint32) []uint32 { return c.adj[c.off[v]:c.off[v+1]] }

// buildOutCSR groups the edges by source, keeping the edge-list order
// within each list.
func buildOutCSR(el *edgeList) csr {
	c := csr{off: make([]uint32, el.n+1), adj: make([]uint32, el.numEdges())}
	for _, s := range el.src {
		c.off[s+1]++
	}
	for v := 0; v < el.n; v++ {
		c.off[v+1] += c.off[v]
	}
	next := append([]uint32(nil), c.off[:el.n]...)
	for e, s := range el.src {
		c.adj[next[s]] = el.dst[e]
		next[s]++
	}
	return c
}

// transpose returns the in-adjacency of out, each list sorted by source,
// so the parent check can binary-search it.
func transpose(out csr) csr {
	n := len(out.off) - 1
	in := csr{off: make([]uint32, n+1), adj: make([]uint32, len(out.adj))}
	for _, d := range out.adj {
		in.off[d+1]++
	}
	for v := 0; v < n; v++ {
		in.off[v+1] += in.off[v]
	}
	next := append([]uint32(nil), in.off[:n]...)
	for u := 0; u < n; u++ {
		for _, d := range out.neighbours(uint32(u)) {
			in.adj[next[d]] = uint32(u)
			next[d]++
		}
	}
	return in
}

// bfs runs a serial queue BFS from s over c, filling level (-1 = not
// reached). It returns the number of reached vertices and the sum of their
// out-degrees in c, the edge count of Graph500's TEPS.
func bfs(c csr, s uint32, level []int32, queue []uint32) (reached int, edges int64) {
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	queue = append(queue[:0], s)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		nb := c.neighbours(u)
		edges += int64(len(nb))
		for _, v := range nb {
			if level[v] < 0 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return len(queue), edges
}

// levelsHash is FNV-1a over the level words. Every step is a bijection of
// the state, so two level arrays that differ in one entry always hash
// differently.
func levelsHash(level []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, l := range level {
		h ^= uint64(uint32(l))
		h *= 1099511628211
	}
	return h
}

// bfsRef is the reference answer for one source.
type bfsRef struct {
	source  uint32
	hash    uint64  // levelsHash of the reference levels
	level   []uint8 // compact levels, unreached for not reached
	reached int
	edges   int64 // TEPS edge count
}

// reference holds what the checks need. It lives in the benchmark's own
// process, never in the process that runs the program.
type reference struct {
	n       int
	out, in csr
	ranks   []float64
	bfs     []bfsRef
}

// pickSources draws count distinct vertices that reach the giant component:
// the vertices from which the highest out-degree vertex is reachable, found
// by a BFS over the in-edges. Their traversals all cover the hub's forward
// closure, so query sizes are unimodal.
func pickSources(out, in csr, count int, seed int64) (hub uint32, sources []uint32, err error) {
	n := len(out.off) - 1
	for v := 1; v < n; v++ {
		if out.off[v+1]-out.off[v] > out.off[hub+1]-out.off[hub] {
			hub = uint32(v)
		}
	}
	level := make([]int32, n)
	back, _ := bfs(in, hub, level, make([]uint32, 0, n))
	if back < count {
		return 0, nil, fmt.Errorf("only %d vertices reach the giant component, need %d sources", back, count)
	}
	candidates := make([]uint32, 0, back)
	for v, l := range level {
		if l >= 0 {
			candidates = append(candidates, uint32(v))
		}
	}
	rng := streamSeed(seed, math.MaxUint64-1)
	for i := 0; i < count; i++ {
		j := i + int(rng.next()%uint64(len(candidates)-i))
		candidates[i], candidates[j] = candidates[j], candidates[i]
	}
	return hub, candidates[:count], nil
}

// bfsReferences runs the reference BFS of every source on workers
// goroutines.
func bfsReferences(out csr, hub uint32, sources []uint32, workers int) ([]bfsRef, error) {
	n := len(out.off) - 1
	refs := make([]bfsRef, len(sources))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			level := make([]int32, n)
			queue := make([]uint32, 0, n)
			for i := w; i < len(sources); i += workers {
				s := sources[i]
				reached, edges := bfs(out, s, level, queue)
				if level[hub] < 0 {
					errs[w] = fmt.Errorf("source %d does not reach the giant component", s)
					return
				}
				compact := make([]uint8, n)
				for v, l := range level {
					switch {
					case l < 0:
						compact[v] = unreached
					case l >= unreached:
						errs[w] = fmt.Errorf("source %d: level %d does not fit the compact form", s, l)
						return
					default:
						compact[v] = uint8(l)
					}
				}
				refs[i] = bfsRef{source: s, hash: levelsHash(level), level: compact, reached: reached, edges: edges}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// pageRankReference is a serial float64 power iteration: every vertex
// starts at 1/n, each iteration spreads rank/out-degree along the
// out-edges (a dangling vertex contributes nothing) and sets
// rank = (1-d)/n + d*sum.
func pageRankReference(out csr) []float64 {
	n := len(out.off) - 1
	rank := make([]float64, n)
	acc := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	base := (1 - prDamping) / float64(n)
	for it := 0; it < prIterations; it++ {
		for v := range acc {
			acc[v] = 0
		}
		for u := 0; u < n; u++ {
			nb := out.neighbours(uint32(u))
			if len(nb) == 0 {
				continue
			}
			c := rank[u] / float64(len(nb))
			for _, v := range nb {
				acc[v] += c
			}
		}
		for v := range rank {
			rank[v] = base + prDamping*acc[v]
		}
	}
	return rank
}

// checkRanks compares a PageRank answer with the reference.
func checkRanks(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("pagerank: %d ranks, want %d", len(got), len(want))
	}
	for v, w := range want {
		if d := math.Abs(got[v] - w); !(d <= rankTolerance*math.Abs(w)) {
			return fmt.Errorf("pagerank: vertex %d rank %.17g, reference %.17g", v, got[v], w)
		}
	}
	return nil
}

// checkBFS checks one BFS answer: its levels must equal the reference
// levels exactly (compared through levelsHash, computed next to the
// program), and its parents must pass Graph500's rules. The source is its
// own parent; every other reached vertex has a parent one level closer to
// the source with an edge from the parent to the vertex; an unreached
// vertex has parent -1.
func checkBFS(ref *bfsRef, hash uint64, parent []int32, in csr) error {
	if hash != ref.hash {
		return fmt.Errorf("bfs %d: levels differ from the reference", ref.source)
	}
	if len(parent) != len(ref.level) {
		return fmt.Errorf("bfs %d: %d parents, want %d", ref.source, len(parent), len(ref.level))
	}
	for v, lv := range ref.level {
		p := parent[v]
		switch {
		case lv == unreached:
			if p != -1 {
				return fmt.Errorf("bfs %d: unreached vertex %d has parent %d", ref.source, v, p)
			}
		case uint32(v) == ref.source:
			if p != int32(v) {
				return fmt.Errorf("bfs %d: source has parent %d", ref.source, p)
			}
		default:
			if p < 0 || int(p) >= len(parent) {
				return fmt.Errorf("bfs %d: vertex %d has parent %d", ref.source, v, p)
			}
			if ref.level[p] != lv-1 {
				return fmt.Errorf("bfs %d: vertex %d at level %d has parent %d at level %d", ref.source, v, lv, p, ref.level[p])
			}
			if !hasEdge(in.neighbours(uint32(v)), uint32(p)) {
				return fmt.Errorf("bfs %d: parent edge %d->%d does not exist", ref.source, p, v)
			}
		}
	}
	return nil
}

// hasEdge binary-searches a sorted in-neighbour list for u.
func hasEdge(sorted []uint32, u uint32) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == u
}
