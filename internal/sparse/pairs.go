package sparse

// pageEntries is the length of a Pairs page: 16 Ki entries, 192 KiB.
// A page is allocated at full length and never grown or copied, so a
// buffer's slack is at most its one partly filled page, and an entry is
// written once between the Gram kernel and the reduce's scatter. On the
// 20k-person week (2 vCPUs), 16 Ki pages peaked about 2 MB RSS lower
// than 64 Ki ones under a 2 MiB budget at the same speed; a week's
// window is then about 80 pages.
const pageEntries = 1 << 14

// chunkEntries is the length of a Reduce chunk: 256 entries, 3 KiB, so
// a page read by the scatter comes back as 64 chunks. Each worker keeps
// one partly filled chunk per row bucket, so chunks are short enough
// that those tails stay small beside the pages, and long enough that
// the chunk lists stay small beside the entries.
const chunkEntries = 1 << 8

// Pairs is an append-only buffer of raw pair entries held in fixed-size
// pages: a Gram worker's output, consumed by Reduce. The synthesis gives
// each worker slot one Pairs per window, every place-complete group and
// segment of the window appends to it, and one Reduce over all slots
// reduces the window. The zero value is empty and allocates no page
// until the first entry arrives. A Pairs is not safe for concurrent use.
type Pairs struct {
	full  [][]Entry // filled pages, in order
	cur   []Entry   // the page being filled
	page  int       // page length; zero selects pageEntries (tests set it smaller)
	chunk int       // Reduce's chunk length; zero selects chunkEntries (tests set it smaller)
}

// turn retires the current page, if it holds anything, and starts a new
// one.
func (p *Pairs) turn() {
	if len(p.cur) > 0 {
		p.full = append(p.full, p.cur)
	}
	n := p.page
	if n <= 0 {
		n = pageEntries
	}
	p.cur = make([]Entry, 0, n)
}

// appendRow appends the pairs (a, ids[k]) for k in ks, each ordered
// I ≤ J, with weight w: one row of a Gram tile. It fills the current
// page with an indexed loop and turns pages as they fill.
func (p *Pairs) appendRow(a uint32, ks []int32, ids []uint32, w uint32) {
	for len(ks) > 0 {
		if len(p.cur) == cap(p.cur) {
			p.turn()
		}
		n := min(len(ks), cap(p.cur)-len(p.cur))
		dst := p.cur[len(p.cur) : len(p.cur)+n]
		for k, x := range ks[:n] {
			i, j := a, ids[x]
			if i > j {
				i, j = j, i
			}
			dst[k] = Entry{I: i, J: j, W: w}
		}
		p.cur = p.cur[:len(p.cur)+n]
		ks = ks[n:]
	}
}

// Len returns the number of entries the buffer holds.
func (p *Pairs) Len() int {
	n := len(p.cur)
	for _, pg := range p.full {
		n += len(pg)
	}
	return n
}

// Pages returns the buffer's non-empty pages, in append order. The
// pages are the buffer's own memory.
func (p *Pairs) Pages() [][]Entry {
	if len(p.cur) == 0 {
		return p.full
	}
	return append(p.full[:len(p.full):len(p.full)], p.cur)
}
