// Package io reads and writes graph files. Readers accept the formats the
// paper's datasets ship in — SNAP whitespace edge lists, Matrix Market
// coordinate files (UF Sparse Matrix collection) and DIMACS .gr — optionally
// gzip-compressed, plus the repo's own .bricsbin binary CSR artifacts
// (package bincsr), and normalise per the paper's preprocessing: simple,
// undirected, self-loop-free. Connectivity is the caller's choice
// (graph.Connect). ReadAny dispatches among all of them by extension and
// magic-byte sniffing.
package io

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/bincsr"
	"repro/internal/graph"
)

// MaxNodeID bounds accepted node identifiers (2^27 ≈ 134M). Ids are used
// directly as dense indices, so a single absurd id in a corrupt file would
// otherwise allocate gigabytes; the largest paper dataset has 10^6 nodes.
// Binary artifacts are bounded identically (it aliases graph.MaxNodeID, the
// bound bincsr enforces).
const MaxNodeID = graph.MaxNodeID

// ErrTruncated reports an input shorter than its own framing promises: a
// binary artifact cut mid-section, or a gzip stream missing its trailer. It
// aliases bincsr.ErrTruncated so errors.Is works across both packages.
var ErrTruncated = bincsr.ErrTruncated

// ReadEdgeList parses a SNAP-style edge list: one "u v" pair per line,
// '#' and '%' comment lines ignored. Node ids may be arbitrary
// non-negative integers up to MaxNodeID; they are used directly, so the
// resulting graph has max(id)+1 nodes (SNAP files are usually dense).
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	b := graph.NewGrowingBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("io: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("io: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("io: line %d: %v", lineNo, err)
		}
		if u > MaxNodeID || v > MaxNodeID {
			return nil, fmt.Errorf("io: line %d: node id exceeds MaxNodeID (%d)", lineNo, MaxNodeID)
		}
		if err := b.AddEdge(graph.NodeID(u), graph.NodeID(v)); err != nil {
			return nil, fmt.Errorf("io: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// ReadMatrixMarket parses a Matrix Market coordinate file as an undirected
// graph (values, if present, are ignored; the pattern is what matters).
// Ids in the file are 1-based.
func ReadMatrixMarket(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	// Header.
	if !sc.Scan() {
		return nil, fmt.Errorf("io: empty MatrixMarket file")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, "%%MatrixMarket") {
		return nil, fmt.Errorf("io: missing MatrixMarket header, got %q", header)
	}
	// Size line (first non-comment).
	var n int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("io: bad size line %q", line)
		}
		rows, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, err
		}
		cols, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, err
		}
		if cols > rows {
			rows = cols
		}
		if rows < 0 {
			return nil, fmt.Errorf("io: negative matrix dimension in %q", line)
		}
		if rows > MaxNodeID {
			return nil, fmt.Errorf("io: matrix dimension %d exceeds MaxNodeID (%d)", rows, MaxNodeID)
		}
		n = rows
		break
	}
	b := graph.NewBuilder(n)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("io: bad entry line %q", line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, err
		}
		if err := b.AddEdge(graph.NodeID(u-1), graph.NodeID(v-1)); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// ReadAny loads a graph from a path in any supported format, dispatching on
// extension — .bricsbin (binary CSR artifact), .mtx (Matrix Market), .gr
// (DIMACS shortest path), anything else an edge list — with transparent .gz
// decompression. A file whose first bytes are the bincsr magic is decoded
// as an artifact regardless of its name, so renamed artifacts keep working
// and a text parser never chews through binary data. Weighted artifacts
// yield their unweighted view (every consumer of this entry point is an
// unweighted analysis).
//
// Close errors from the file and any gzip layer are propagated: a
// decompressor that detects a corrupt trailer only at Close must not let
// the load report success. Short reads surface as ErrTruncated.
func ReadAny(path string) (g *graph.Graph, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer closeKeepErr(&err, f)
	var r io.Reader = f
	name := path
	if strings.HasSuffix(name, ".gz") {
		gz, gerr := gzip.NewReader(f)
		if gerr != nil {
			return nil, fmt.Errorf("io: %s: %v", path, gerr)
		}
		defer closeKeepErr(&err, gz)
		r = gz
		name = strings.TrimSuffix(name, ".gz")
	}
	tr := &truncTracker{r: r}
	br := bufio.NewReaderSize(tr, 1<<20)
	magic, _ := br.Peek(len(bincsr.Magic))
	switch {
	case strings.HasSuffix(name, ".bricsbin") || string(magic) == bincsr.Magic:
		art, aerr := bincsr.Read(br)
		if aerr != nil {
			return nil, fmt.Errorf("io: %s: %w", path, aerr)
		}
		return art.G, nil
	case strings.HasSuffix(name, ".mtx"):
		g, err = ReadMatrixMarket(br)
	case strings.HasSuffix(name, ".gr"):
		g, err = ReadDIMACS(br)
	default:
		g, err = ReadEdgeList(br)
	}
	// A truncated stream (a gzip body cut short, say) usually fails the
	// parser first — the decompressed tail is half a line — so the stream's
	// own truncation signal, not the confused parse error, is the root
	// cause to report.
	if err != nil && (tr.truncated || errors.Is(err, io.ErrUnexpectedEOF)) {
		err = fmt.Errorf("%w: %s: %v", ErrTruncated, path, err)
	} else if err == nil && tr.truncated {
		return nil, fmt.Errorf("%w: %s", ErrTruncated, path)
	}
	return g, err
}

// truncTracker remembers whether the wrapped reader ever reported an
// unexpected EOF, so ReadAny can attribute downstream parse failures to the
// real cause.
type truncTracker struct {
	r         io.Reader
	truncated bool
}

func (t *truncTracker) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if errors.Is(err, io.ErrUnexpectedEOF) {
		t.truncated = true
	}
	return n, err
}

// closeKeepErr closes c, surfacing its error unless one is already set.
func closeKeepErr(err *error, c io.Closer) {
	if cerr := c.Close(); cerr != nil && *err == nil {
		*err = cerr
	}
}

// WriteEdgeList writes g as a SNAP-style edge list with a size comment.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes %d edges %d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(u, v graph.NodeID) {
		if werr == nil {
			_, werr = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// WriteFarnessCSV writes "node,farness,exact" rows.
func WriteFarnessCSV(w io.Writer, farness []float64, exact []bool) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "node,farness,exact"); err != nil {
		return err
	}
	for i, f := range farness {
		ex := false
		if exact != nil {
			ex = exact[i]
		}
		if _, err := fmt.Fprintf(bw, "%d,%g,%v\n", i, f, ex); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDIMACS parses a 9th-DIMACS-challenge shortest-path file (.gr):
// "c" comment lines, one "p sp n m" problem line, and "a u v w" arc lines
// with 1-based ids. Arc weights are dropped — the paper's preprocessing
// treats every graph as unweighted — and both arc directions collapse to
// one undirected edge.
func ReadDIMACS(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var b *graph.Builder
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == 'c' {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "p":
			if len(fields) < 4 || fields[1] != "sp" {
				return nil, fmt.Errorf("io: line %d: bad problem line %q", lineNo, line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("io: line %d: %v", lineNo, err)
			}
			if n < 0 {
				return nil, fmt.Errorf("io: line %d: negative node count %d", lineNo, n)
			}
			if n > MaxNodeID {
				return nil, fmt.Errorf("io: line %d: %d nodes exceeds MaxNodeID", lineNo, n)
			}
			b = graph.NewBuilder(n)
		case "a":
			if b == nil {
				return nil, fmt.Errorf("io: line %d: arc before problem line", lineNo)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("io: line %d: bad arc line %q", lineNo, line)
			}
			u, err := strconv.ParseInt(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("io: line %d: %v", lineNo, err)
			}
			v, err := strconv.ParseInt(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("io: line %d: %v", lineNo, err)
			}
			if err := b.AddEdge(graph.NodeID(u-1), graph.NodeID(v-1)); err != nil {
				return nil, fmt.Errorf("io: line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("io: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("io: missing DIMACS problem line")
	}
	return b.Build(), nil
}
