package io

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestReadEdgeList(t *testing.T) {
	in := `# SNAP comment
% matrix-style comment

0 1
1 2
2 0
2 2
1 0
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes %d edges, want 3/3", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Error("short line should error")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Error("non-numeric should error")
	}
	if _, err := ReadEdgeList(strings.NewReader("-1 2\n")); err == nil {
		t.Error("negative id should error")
	}
}

func TestReadMatrixMarket(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
% a comment
4 4 4
1 2
2 3
3 4
4 1
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d nodes %d edges, want 4/4", g.NumNodes(), g.NumEdges())
	}
	// 1-based ids map to 0-based.
	if !g.HasEdge(0, 1) || !g.HasEdge(3, 0) {
		t.Error("edges mismapped")
	}
}

func TestReadMatrixMarketHeaderRequired(t *testing.T) {
	if _, err := ReadMatrixMarket(strings.NewReader("3 3 1\n1 2\n")); err == nil {
		t.Error("missing header should error")
	}
	if _, err := ReadMatrixMarket(strings.NewReader("")); err == nil {
		t.Error("empty file should error")
	}
	if _, err := ReadMatrixMarket(strings.NewReader("%%MatrixMarket matrix coordinate pattern symmetric\n-1 -1 0\n")); err == nil {
		t.Error("negative size should error")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := graph.FromEdges(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	g.Edges(func(u, v graph.NodeID) {
		if !g2.HasEdge(u, v) {
			t.Errorf("edge {%d,%d} lost in round trip", u, v)
		}
	})
}

func TestReadFileDispatchAndGzip(t *testing.T) {
	dir := t.TempDir()

	// Plain edge list.
	el := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(el, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(el)
	if err != nil || g.NumEdges() != 2 {
		t.Fatalf("edge list: %v, %d edges", err, g.NumEdges())
	}

	// Gzipped Matrix Market.
	mm := filepath.Join(dir, "g.mtx.gz")
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	_, _ = zw.Write([]byte("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n2 3\n"))
	_ = zw.Close()
	if err := os.WriteFile(mm, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err = ReadFile(mm)
	if err != nil || g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("mtx.gz: %v, %d/%d", err, g.NumNodes(), g.NumEdges())
	}

	if _, err := ReadFile(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file should error")
	}
}

func TestWriteFarnessCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFarnessCSV(&buf, []float64{1.5, 2}, []bool{true, false}); err != nil {
		t.Fatal(err)
	}
	want := "node,farness,exact\n0,1.5,true\n1,2,false\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
	buf.Reset()
	if err := WriteFarnessCSV(&buf, []float64{3}, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0,3,false") {
		t.Fatalf("nil exact flags: %q", buf.String())
	}
}

func TestReadDIMACS(t *testing.T) {
	in := `c road network
p sp 4 5
a 1 2 7
a 2 1 7
a 2 3 3
a 3 4 1
a 4 1 2
`
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d/%d, want 4 nodes 4 edges (reciprocal arcs collapse)", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(3, 0) {
		t.Error("edges mismapped")
	}
}

func TestReadDIMACSErrors(t *testing.T) {
	cases := []string{
		"a 1 2 3\n",               // arc before problem line
		"p tw 3 3\n",              // wrong problem type
		"p sp 3 3\nx 1 2\n",       // unknown record
		"p sp 3 3\na 9 1 1\n",     // out of range
		"c only comments\n",       // no problem line
		"p sp 999999999 1\n",      // exceeds MaxNodeID
		"p sp -1 0\n",             // negative node count
		"p sp 3 3\na one two 3\n", // non-numeric
	}
	for _, in := range cases {
		if _, err := ReadDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should error", in)
		}
	}
}

func TestReadFileDIMACSDispatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "road.gr")
	if err := os.WriteFile(path, []byte("p sp 2 1\na 1 2 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path)
	if err != nil || g.NumEdges() != 1 {
		t.Fatalf("dispatch: %v %d", err, g.NumEdges())
	}
}
