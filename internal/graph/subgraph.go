package graph

// Subgraph extracts the subgraph of g induced by the nodes where keep[v] is
// true. It returns the new graph, a mapping newID -> oldID, and a mapping
// oldID -> newID (-1 for removed nodes). Edges between kept nodes survive.
// It is the sequential convenience form of SubgraphInto.
func Subgraph(g *Graph, keep []bool) (sub *Graph, toOld []NodeID, toNew []NodeID) {
	toNew = make([]NodeID, g.NumNodes())
	sub = SubgraphInto(g, keep, toNew, 1)
	return sub, invertCompact(toNew, sub.NumNodes()), toNew
}

// invertCompact turns a compact old→new renumbering into its newID→oldID
// inverse.
func invertCompact(toNew []NodeID, kept int) []NodeID {
	toOld := make([]NodeID, kept)
	for v, nv := range toNew {
		if nv >= 0 {
			toOld[nv] = NodeID(v)
		}
	}
	return toOld
}

// DegreeStats summarises the degree distribution of a graph; Table I's
// structural columns are derived from these plus the reduction registries.
type DegreeStats struct {
	Min, Max   int
	Mean       float64
	CountDeg1  int // nodes of degree 1
	CountDeg2  int // nodes of degree 2
	CountDeg34 int // nodes of degree 3 or 4
}

// Degrees computes degree statistics for g.
func Degrees(g *Graph) DegreeStats {
	n := g.NumNodes()
	if n == 0 {
		return DegreeStats{}
	}
	s := DegreeStats{Min: g.Degree(0)}
	total := 0
	for v := 0; v < n; v++ {
		d := g.Degree(NodeID(v))
		total += d
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
		switch {
		case d == 1:
			s.CountDeg1++
		case d == 2:
			s.CountDeg2++
		case d == 3 || d == 4:
			s.CountDeg34++
		}
	}
	s.Mean = float64(total) / float64(n)
	return s
}
