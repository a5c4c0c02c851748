package core

import "repro/internal/eventlog"

// A held segment's blocks are heldBlock entries long: 8 Ki entries,
// 160 KiB.
const (
	heldShift = 13
	heldBlock = 1 << heldShift
)

// held is one segment's resident entries in arrival order, kept in
// blocks that are filled in place and never regrown by copying. Blocks
// fill in order, each to heldBlock, and only a first block is ever
// short of capacity — it doubles up to heldBlock, so a slice that
// covers a small fraction of a log or a trickle from a live tail
// allocates about what it holds, and a large one at most one partly
// filled block more.
// Entry i lives at blocks[i>>heldShift][i&(heldBlock-1)]; stage 1b's
// place keys address the entries that way, so a segment's entries are
// held once, here, from ingest through synthesis.
type held struct {
	blocks [][]eventlog.Entry
	n      int
}

// heldView presents a flat slice as a held segment without copying it:
// its blocks are heldBlock-long windows of es. It is read-only — never
// append to it.
func heldView(es []eventlog.Entry) *held {
	h := &held{n: len(es)}
	for lo := 0; lo < len(es); lo += heldBlock {
		hi := min(lo+heldBlock, len(es))
		h.blocks = append(h.blocks, es[lo:hi:hi])
	}
	return h
}

// at returns entry i.
func (h *held) at(i uint32) eventlog.Entry {
	return h.blocks[i>>heldShift][i&(heldBlock-1)]
}

// append copies es onto the end of the segment.
func (h *held) append(es []eventlog.Entry) {
	for len(es) > 0 {
		k := h.n >> heldShift
		if k == len(h.blocks) {
			h.blocks = append(h.blocks, nil)
		}
		b := h.blocks[k]
		take := min(heldBlock-len(b), len(es))
		if len(b)+take > cap(b) {
			// Only a first block grows; a later one is allocated whole.
			size := heldBlock
			if k == 0 {
				size = min(heldBlock, max(2*cap(b), len(b)+take))
			}
			b = append(make([]eventlog.Entry, 0, size), b...)
		}
		h.blocks[k] = append(b, es[:take]...)
		h.n += take
		es = es[take:]
	}
}

// reset empties the segment and keeps its blocks for refilling.
func (h *held) reset() {
	for k := range h.blocks {
		h.blocks[k] = h.blocks[k][:0]
	}
	h.n = 0
}
