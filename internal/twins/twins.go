// Package twins implements the "I" of BRICS: detection of identical nodes
// (Section III-A of the paper). Two nodes are open twins when they have the
// same open neighbourhood N(u) = N(v) (they are then non-adjacent and at
// mutual distance exactly 2 through any shared neighbour), and closed twins
// when N[u] = N[v] (they are then adjacent, mutual distance 1). Either kind
// of group shares a single farness value, so all but one representative can
// be removed from the graph, with the representative carrying the group's
// population weight.
//
// Detection hashes each node's neighbour set (the paper: "by hashing the
// neighbour list of each node, we can find all the groups of identical
// nodes") and confirms candidate groups by exact list comparison, so hash
// collisions cannot create false twins.
package twins

import (
	"math/bits"
	"math/rand/v2"
	"sort"

	"repro/internal/graph"
	"repro/internal/par"
)

// Kind distinguishes the two twin relations.
type Kind uint8

const (
	// Open marks groups with equal open neighbourhoods; members are
	// pairwise non-adjacent at distance 2.
	Open Kind = iota
	// Closed marks groups with equal closed neighbourhoods; members are
	// pairwise adjacent at distance 1.
	Closed
)

// String returns "open" or "closed".
func (k Kind) String() string {
	if k == Closed {
		return "closed"
	}
	return "open"
}

// Group is one set of mutually identical nodes. Members are sorted; the
// first member is the representative that stays in the reduced graph.
type Group struct {
	Members []graph.NodeID
	Kind    Kind
}

// Rep returns the group's representative (its smallest member).
func (g *Group) Rep() graph.NodeID { return g.Members[0] }

// Dist returns the pairwise distance between any two members of the group:
// 1 for closed twins, 2 for open twins.
func (g *Group) Dist() int32 {
	if g.Kind == Closed {
		return 1
	}
	return 2
}

// Result of twin detection over a graph.
type Result struct {
	// Groups lists every twin group with at least two members.
	Groups []Group
	// RepOf maps each node to its representative: itself for nodes that
	// stay, the group representative for removed twins.
	RepOf []graph.NodeID
	// GroupOf maps each node to its index in Groups, or -1.
	GroupOf []int32
	// Removed is the number of nodes a reduction pass may delete
	// (Σ (len(group)-1)).
	Removed int
}

// IsRemoved reports whether node v is a non-representative twin.
func (r *Result) IsRemoved(v graph.NodeID) bool { return r.RepOf[v] != v }

// seed keys the neighbourhood hash per process, so no fixed input can force
// every node into one candidate run.
var seed = rand.Uint64()

// mix is the splitmix64 finaliser of v under the process seed.
func mix(v graph.NodeID) uint64 {
	x := uint64(v) + seed
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// hashSet hashes the set nbrs ∪ {extra} (extra < 0: nbrs alone) as the sum
// of its mixed members. The sum does not depend on order, so equal closed
// neighbourhoods hash equally although their adjacency lists differ.
func hashSet(nbrs []graph.NodeID, extra graph.NodeID) uint64 {
	var h uint64
	for _, v := range nbrs {
		h += mix(v)
	}
	if extra >= 0 {
		h += mix(extra)
	}
	return h
}

func sameOpen(g *graph.Graph, u, v graph.NodeID) bool {
	a, b := g.Neighbors(u), g.Neighbors(v)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameClosed reports N[u] == N[v]. Since adjacency excludes self, this holds
// iff u∈N(v), v∈N(u) and N(u)\{v} == N(v)\{u}.
func sameClosed(g *graph.Graph, u, v graph.NodeID) bool {
	a, b := g.Neighbors(u), g.Neighbors(v)
	if len(a) != len(b) {
		return false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x == v {
			i++
			continue
		}
		if y == u {
			j++
			continue
		}
		if x != y {
			return false
		}
		i++
		j++
	}
	for i < len(a) && a[i] == v {
		i++
	}
	for j < len(b) && b[j] == u {
		j++
	}
	if i != len(a) || j != len(b) {
		return false
	}
	// The skipped entries must actually have been present (adjacency).
	return g.HasEdge(u, v)
}

// Find detects all twin groups of g. Nodes of degree 0 are ignored (the
// pipeline operates on connected graphs where they cannot occur). Each node
// joins at most one group; open grouping takes precedence, matching the
// paper's single identical-nodes pass. Find is FindWorkers at one worker —
// every worker count yields the same Result.
func Find(g *graph.Graph) *Result { return FindWorkers(g, 1) }

// FindWorkers is Find with the neighbourhood hashing and candidate
// verification spread over the given number of workers (<1 means
// GOMAXPROCS). Per-node hashes are computed in a data-parallel pass, one
// stable counting sort on the hashes' top bits puts the nodes of every
// equal-hash run in one bucket in ascending id order, the buckets are
// verified by exact list comparison in parallel (groups are exact-equality
// classes, so their membership does not depend on discovery order), and the
// merged groups are sorted by representative. The output is bit-identical for every worker
// count: groups listed open-pass first, each pass sorted by representative,
// members ascending.
func FindWorkers(g *graph.Graph, workers int) *Result {
	n := g.NumNodes()
	workers = par.Workers(workers)
	res := &Result{
		RepOf:   make([]graph.NodeID, n),
		GroupOf: make([]int32, n),
	}
	par.ForBlocks(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			res.RepOf[v] = graph.NodeID(v)
			res.GroupOf[v] = -1
		}
	})
	assigned := make([]bool, n)
	hashes := make([]uint64, n)
	order, sorted := make([]graph.NodeID, 0, n), make([]graph.NodeID, n)

	// collect finds the canonical equality groups of one pass: hash every
	// live node, bucket the nodes by hash, verify every bucket of two or
	// more nodes, then order the discovered groups by representative.
	// assigned is read-only here; apply() commits a pass.
	collect := func(kind Kind) []Group {
		live := func(v int) bool { return !assigned[v] && g.Degree(graph.NodeID(v)) > 0 }
		par.ForBlocks(n, workers, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				if !live(v) {
					continue
				}
				if kind == Open {
					hashes[v] = hashSet(g.Neighbors(graph.NodeID(v)), -1)
				} else {
					hashes[v] = hashSet(g.Neighbors(graph.NodeID(v)), graph.NodeID(v))
				}
			}
		})
		// Bucket the live nodes by the top bits of their hash (a stable
		// counting sort over ascending ids, about one node per bucket): equal
		// hashes share a bucket, so every equality class lies in one bucket
		// of two or more nodes, listed in ascending id order.
		order = order[:0]
		for v := 0; v < n; v++ {
			if live(v) {
				order = append(order, graph.NodeID(v))
			}
		}
		width := bits.Len(uint(len(order)))
		start := make([]int32, 1<<width+1)
		bucket := func(v graph.NodeID) uint64 { return hashes[v] >> (64 - width) }
		for _, v := range order {
			start[bucket(v)+1]++
		}
		for i := 1; i < len(start); i++ {
			start[i] += start[i-1]
		}
		next := append([]int32(nil), start[:len(start)-1]...)
		for _, v := range order {
			b := bucket(v)
			sorted[next[b]] = v
			next[b]++
		}
		var cands [][2]int32 // [lo, hi) of every bucket holding two or more nodes
		for b := 0; b+1 < len(start); b++ {
			if start[b+1]-start[b] >= 2 {
				cands = append(cands, [2]int32{start[b], start[b+1]})
			}
		}
		perBlock := make([][]Group, par.NumBlocks(len(cands), workers))
		par.ForBlocks(len(cands), workers, func(b, lo, hi int) {
			var local []Group
			for _, r := range cands[lo:hi] {
				local = verifyBucket(g, kind, hashes, sorted[r[0]:r[1]], local)
			}
			perBlock[b] = local
		})
		var groups []Group
		for _, local := range perBlock {
			groups = append(groups, local...)
		}
		sort.Slice(groups, func(i, j int) bool { return groups[i].Members[0] < groups[j].Members[0] })
		return groups
	}

	apply := func(groups []Group) {
		for _, grp := range groups {
			gi := int32(len(res.Groups))
			res.Groups = append(res.Groups, grp)
			for _, m := range grp.Members {
				assigned[m] = true
				res.GroupOf[m] = gi
				res.RepOf[m] = grp.Members[0]
			}
			res.Removed += len(grp.Members) - 1
		}
	}

	apply(collect(Open))
	apply(collect(Closed))
	return res
}

// verifyBucket splits one bucket of candidates (ascending ids) into its
// exact-equality groups of two or more members, each listed from its
// smallest member, and appends them to out. Only candidates with equal
// hashes are compared.
func verifyBucket(g *graph.Graph, kind Kind, hashes []uint64, cand []graph.NodeID, out []Group) []Group {
	used := make([]bool, len(cand))
	for i := range cand {
		if used[i] {
			continue
		}
		members := []graph.NodeID{cand[i]}
		for j := i + 1; j < len(cand); j++ {
			if used[j] || hashes[cand[j]] != hashes[cand[i]] {
				continue
			}
			var eq bool
			if kind == Open {
				eq = sameOpen(g, cand[i], cand[j])
			} else {
				eq = sameClosed(g, cand[i], cand[j])
			}
			if eq {
				members = append(members, cand[j])
				used[j] = true
			}
		}
		if len(members) >= 2 {
			out = append(out, Group{Members: members, Kind: kind})
		}
	}
	return out
}
