package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// WriteEdgeList writes the strict upper triangle of t as a three-column
// TSV (person_i, person_j, weight) with a comment header. Each line is
// formatted straight into the buffered writer's free space.
func WriteEdgeList(w io.Writer, t *sparse.Tri) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(edgeListHeader); err != nil {
		return err
	}
	for k := range t.I {
		line := bw.AvailableBuffer()
		line = strconv.AppendUint(line, uint64(t.I[k]), 10)
		line = append(line, '\t')
		line = strconv.AppendUint(line, uint64(t.J[k]), 10)
		line = append(line, '\t')
		line = strconv.AppendUint(line, uint64(t.W[k]), 10)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// edgeListHeader is WriteEdgeList's first line.
const edgeListHeader = "# person_i\tperson_j\tcollocated_hours\n"

// edgeListBufSize is the read-ahead of ReadEdgeList's streaming reader —
// large enough that multi-GB edge lists are consumed in few syscalls,
// small enough to be irrelevant against the parsed output.
const edgeListBufSize = 1 << 20

// ErrEdgeList tags every parse failure of ReadEdgeList; the concrete
// error carries the 1-based line number and offending text.
var ErrEdgeList = errors.New("graph: malformed edge list")

// lineError builds a line-numbered ErrEdgeList.
func lineError(line int, text, msg string) error {
	if len(text) > 64 {
		text = text[:61] + "..."
	}
	return fmt.Errorf("%w: line %d: %s: %q", ErrEdgeList, line, msg, text)
}

// parseID parses one uint32 field, rejecting overflow and junk
// explicitly (strconv with bitSize 32, base 10 only).
func parseID(field string) (uint32, error) {
	v, err := strconv.ParseUint(field, 10, 32)
	if err != nil {
		return 0, err
	}
	return uint32(v), nil
}

// ReadEdgeList parses a TSV edge list produced by WriteEdgeList into a
// sparse triangular matrix. Lines beginning with '#' and blank lines
// are ignored; fields may be separated by tabs or spaces. Every other
// line must hold exactly three base-10 fields that fit in uint32 —
// malformed, overflowing, zero-weight or self-loop lines fail with a
// line-numbered error wrapping ErrEdgeList rather than being skipped. A
// pair listed more than once gets the sum of its weights, and a sum past
// uint32 fails too. The input is streamed line-by-line through a sized
// bufio.Reader, so there is no fixed maximum line length.
func ReadEdgeList(r io.Reader) (*sparse.Tri, error) {
	var es []sparse.Entry
	var sum uint64
	br := bufio.NewReaderSize(r, edgeListBufSize)
	line := 0
	for {
		text, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return nil, err
		}
		if text == "" && err == io.EOF {
			break
		}
		line++
		e, ok, perr := parseEdgeLine(line, text)
		if perr != nil {
			return nil, perr
		}
		if ok {
			es = append(es, e)
			sum += uint64(e.W)
		}
		if err == io.EOF {
			break
		}
	}
	t := sparse.Coalesce(1, es)
	if t.TotalWeight() != sum {
		return nil, fmt.Errorf("%w: the weights of a repeated pair sum past uint32", ErrEdgeList)
	}
	return t, nil
}

// parseEdgeLine parses one line into an entry; ok is false for a blank
// or comment line.
func parseEdgeLine(line int, text string) (e sparse.Entry, ok bool, err error) {
	text = strings.TrimSpace(text)
	if text == "" || strings.HasPrefix(text, "#") {
		return e, false, nil
	}
	fields := strings.Fields(text)
	if len(fields) != 3 {
		return e, false, lineError(line, text, fmt.Sprintf("want 3 fields, have %d", len(fields)))
	}
	if e.I, err = parseID(fields[0]); err != nil {
		return e, false, lineError(line, text, "bad person_i: "+err.Error())
	}
	if e.J, err = parseID(fields[1]); err != nil {
		return e, false, lineError(line, text, "bad person_j: "+err.Error())
	}
	if e.W, err = parseID(fields[2]); err != nil {
		return e, false, lineError(line, text, "bad weight: "+err.Error())
	}
	switch {
	case e.I == e.J:
		return e, false, lineError(line, text, fmt.Sprintf("self-loop %d", e.I))
	case e.W == 0:
		return e, false, lineError(line, text, "zero weight")
	}
	return e, true, nil
}
