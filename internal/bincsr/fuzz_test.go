package bincsr

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// FuzzReadBinCSR feeds arbitrary bytes to the full-verification reader. The
// invariants: Read never panics, never over-allocates off a lying header
// (the MaxNodeID bound and chunked section reads cap allocation by the
// bytes actually present), and anything it does accept round-trips to an
// identical artifact — so corrupt, truncated, misaligned and bit-flipped
// inputs all surface as errors, not as quietly wrong graphs.
func FuzzReadBinCSR(f *testing.F) {
	seed := func(g *graph.Graph, flags Flags) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, g, flags); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := seed(gen.Web(200, 1), FlagConnected)
	f.Add(valid)
	f.Add(seed(graph.FromEdges(0, nil), 0))
	f.Add(seed(graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}}), 0))
	f.Add(seed(graph.FromWeightedEdges(3, [][3]int32{{0, 1, 2}, {1, 2, 9}}), 0))
	// Classic liars: a valid header grafted onto nothing, truncations, and a
	// size field inflated past the data.
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-3])
	{
		lying := append([]byte{}, valid...)
		binary.LittleEndian.PutUint64(lying[24:], 1<<40)
		f.Add(lying)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		art, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must be a coherent graph that re-encodes to an
		// artifact accepted again with the same shape.
		if art.G == nil {
			t.Fatal("accepted artifact with nil graph")
		}
		if err := art.G.Validate(); err != nil {
			t.Fatalf("accepted artifact fails Validate: %v", err)
		}
		g := art.G
		if art.Header.Weighted() {
			if art.W == nil {
				t.Fatal("weighted artifact with nil W")
			}
			g = art.W
		}
		var buf bytes.Buffer
		if err := Write(&buf, g, art.Header.Flags); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if again.Header.N != art.Header.N || again.Header.AdjLen != art.Header.AdjLen {
			t.Fatalf("round trip changed shape: (%d,%d) -> (%d,%d)",
				art.Header.N, art.Header.AdjLen, again.Header.N, again.Header.AdjLen)
		}
	})
}
