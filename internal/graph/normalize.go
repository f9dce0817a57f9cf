package graph

// Components labels the connected components of g. It returns a label per
// node (labels are dense, 0-based, assigned in order of the lowest node id
// in each component) and the number of components.
func Components(g *Graph) (labels []int32, count int) {
	n := g.NumNodes()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var stack []NodeID
	for v := 0; v < n; v++ {
		if labels[v] != -1 {
			continue
		}
		c := int32(count)
		count++
		labels[v] = c
		stack = append(stack[:0], NodeID(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(u) {
				if labels[w] == -1 {
					labels[w] = c
					stack = append(stack, w)
				}
			}
		}
	}
	return labels, count
}

// IsConnected reports whether g is connected. The empty graph and the
// single-node graph are connected.
func IsConnected(g *Graph) bool {
	if g.NumNodes() <= 1 {
		return true
	}
	_, c := Components(g)
	return c == 1
}

// Connect returns a connected graph, adding the minimum number of edges
// (component-representative to component-representative, in a chain) when g
// is disconnected. This mirrors the paper's preprocessing: "if the graph is
// disconnected, we added few edges to make it connected" (Section IV-B).
// If g is already connected it is returned unmodified.
func Connect(g *Graph) *Graph {
	labels, count := Components(g)
	if count <= 1 {
		return g
	}
	reps := make([]NodeID, count)
	for i := range reps {
		reps[i] = -1
	}
	for v := 0; v < g.NumNodes(); v++ {
		if reps[labels[v]] == -1 {
			reps[labels[v]] = NodeID(v)
		}
	}
	b := NewBuilder(g.NumNodes())
	g.Edges(func(u, v NodeID) {
		_ = b.AddEdge(u, v)
	})
	for i := 1; i < count; i++ {
		_ = b.AddEdge(reps[i-1], reps[i])
	}
	return b.Build()
}
