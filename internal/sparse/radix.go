package sparse

// This file holds the reduction kernels of the synthesis pipeline: the
// row-range-sharded Reduce that turns raw pair entries into a network
// (and Coalesce, which runs it on a copy of entries it must not touch),
// the LSD radix sort on the packed (I,J) key it runs per bucket, and
// MergeTris, the pairwise merge that sums finished networks.

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

func entryKey(e Entry) uint64 { return uint64(e.I)<<32 | uint64(e.J) }

// radixMinLen is the input size below which the O(n log n) comparison
// sort beats the 8-pass counting sort's fixed costs.
const radixMinLen = 256

// coalesceBucket is the mean entry count Coalesce aims for per row
// bucket: 4 Ki entries are 48 KiB, so a bucket's radix passes stay in
// cache. maxBucketBits caps the bucket count, and with it each worker's
// tail chunks and the scatter's fan-out.
const (
	coalesceBucket = 1 << 12
	maxBucketBits  = 14
)

// Coalesce builds the canonical Tri — sorted by (I, J) with I < J,
// self-pairs dropped, each pair once with its weights summed — from the
// raw entries spread over parts, which it only reads: it copies them
// into pages and reduces those with Reduce. The result is the same bit
// for bit for any worker count and any split of the entries into parts.
func Coalesce(workers int, parts ...[]Entry) *Tri {
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	all := make([]Entry, 0, n)
	for _, part := range parts {
		all = append(all, part...)
	}
	var buf Pairs
	for len(all) > 0 {
		k := min(len(all), pageEntries)
		buf.full = append(buf.full, all[:k:k])
		all = all[k:]
	}
	return Reduce(workers, []Pairs{buf})
}

// Reduce builds the canonical Tri from the raw entries in bufs and
// empties them. It is the reduce step of the synthesis, A = Σ A_l, over
// the Gram workers' buffers of one window, and it holds each raw entry
// once: in its page until the page is read, then in a chunk carved from
// a page already read.
//
// The reduction is sharded by row range, on up to workers goroutines.
// Each takes whole pages and appends every entry, ordered (I < J), to
// its own tail chunk for the bucket of rows the smaller id falls in;
// a page it has read is carved into chunks for later tails, and a chunk
// is allocated fresh only while none is free. Contiguous bucket ranges,
// balanced by entry count, are then folded one bucket at a time: its
// chunks are gathered into a scratch, sorted, folded by foldBucket and
// written back into the same chunks. One exactly-sized Tri is filled at
// prefix offsets. Buckets are disjoint and ascending in I and weight
// addition commutes, so the result is the same bit for bit for any
// worker count, chunk length and split of the entries over pages.
func Reduce(workers int, bufs []Pairs) *Tri {
	chunk := chunkEntries
	var pages [][]Entry
	for i := range bufs {
		if bufs[i].chunk > 0 {
			chunk = bufs[i].chunk
		}
		pages = append(pages, bufs[i].Pages()...)
		bufs[i].full, bufs[i].cur = nil, nil
	}
	t, _, _ := reducePages(workers, chunk, pages)
	return t
}

// scatterer is one Reduce worker's scatter state.
type scatterer struct {
	tails [][]Entry // tails[b]: the chunk being filled for bucket b
	full  [][]Entry // filled chunks; a chunk's bucket is its first entry's
	free  [][]Entry // chunks carved from the pages this worker has read
	fresh int       // chunks allocated because free was empty
}

// scatter appends each entry of page, ordered (I < J), to its bucket's
// tail chunk, then carves the page, now read, into free chunks.
func (s *scatterer) scatter(page []Entry, shift uint32, chunk int) {
	for _, e := range page {
		lo, hi := min(e.I, e.J), max(e.I, e.J)
		b := lo >> shift
		t := s.tails[b]
		if len(t) == cap(t) {
			if len(t) > 0 {
				s.full = append(s.full, t)
			}
			if n := len(s.free); n > 0 {
				t, s.free = s.free[n-1], s.free[:n-1]
			} else {
				t = make([]Entry, 0, chunk)
				s.fresh++
			}
		}
		s.tails[b] = append(t, Entry{I: lo, J: hi, W: e.W})
	}
	for page = page[:cap(page)]; len(page) >= chunk; page = page[chunk:] {
		s.free = append(s.free, page[:0:chunk])
	}
}

// reducePages is Reduce over the given pages with the given chunk
// length. It also returns the bucket count and the number of chunks it
// allocated fresh, which is at most workers × (buckets + the longest
// page's chunk count) when the chunk length divides every page's
// capacity.
func reducePages(workers, chunk int, pages [][]Entry) (t *Tri, buckets, fresh int) {
	workers = max(workers, 1)
	tops := make([]uint32, len(pages))
	forEach(workers, len(pages), func(p int) {
		for _, e := range pages[p] {
			tops[p] = max(tops[p], min(e.I, e.J))
		}
	})
	top := slices.Max(append(tops, 0))
	// Bucket b holds the rows whose id>>shift is b: about coalesceBucket
	// entries each, were rows even. Self-pairs are only dropped when a
	// bucket is folded, so the raw count sizes the buckets.
	raw := 0
	for _, page := range pages {
		raw += len(page)
	}
	shift := uint32(max(bits.Len32(top)-min(bits.Len(uint(raw/coalesceBucket)), maxBucketBits), 0))
	nb := int(top>>shift) + 1

	ss := make([]scatterer, min(workers, len(pages)))
	var next atomic.Int64
	forEach(len(ss), len(ss), func(w int) {
		s := &ss[w]
		s.tails = make([][]Entry, nb)
		for p := int(next.Add(1) - 1); p < len(pages); p = int(next.Add(1) - 1) {
			s.scatter(pages[p], shift, chunk)
		}
		for _, t := range s.tails {
			if len(t) > 0 {
				s.full = append(s.full, t)
			}
		}
	})

	// Gather every worker's chunks by bucket: chunks[first[b]:first[b+1]]
	// are bucket b's, and start[b] is where its entries would begin were
	// the buckets laid end to end.
	first := make([]int, nb+1)
	start := make([]int, nb+1)
	for w := range ss {
		fresh += ss[w].fresh
		for _, c := range ss[w].full {
			b := c[0].I >> shift
			first[b+1]++
			start[b+1] += len(c)
		}
	}
	for b := 0; b < nb; b++ {
		first[b+1] += first[b]
		start[b+1] += start[b]
	}
	chunks := make([][]Entry, first[nb])
	at := slices.Clone(first[:nb])
	for w := range ss {
		for _, c := range ss[w].full {
			b := c[0].I >> shift
			chunks[at[b]] = c
			at[b]++
		}
	}

	// Sort and fold each bucket into a prefix of its own chunks; uniq[b+1]
	// is bucket b's distinct key count, then (after the prefix sum)
	// uniq[b] is its output offset.
	ranges := cutRanges(start, 4*workers)
	uniq := make([]int, nb+1)
	forEach(workers, len(ranges)-1, func(r int) {
		var es, scratch []Entry
		for b := ranges[r]; b < ranges[r+1]; b++ {
			es = es[:0]
			for _, c := range chunks[first[b]:first[b+1]] {
				es = append(es, c...)
			}
			uniq[b+1], scratch = foldBucket(es, scratch)
			rest := es[:uniq[b+1]]
			for _, c := range chunks[first[b]:first[b+1]] {
				rest = rest[copy(c, rest):]
			}
		}
	})
	for b := 0; b < nb; b++ {
		uniq[b+1] += uniq[b]
	}
	t = &Tri{I: make([]uint32, uniq[nb]), J: make([]uint32, uniq[nb]), W: make([]uint32, uniq[nb])}
	forEach(workers, len(ranges)-1, func(r int) {
		for b := ranges[r]; b < ranges[r+1]; b++ {
			k := uniq[b]
			for _, c := range chunks[first[b]:first[b+1]] {
				for _, e := range c[:min(len(c), uniq[b+1]-k)] {
					t.I[k], t.J[k], t.W[k] = e.I, e.J, e.W
					k++
				}
			}
		}
	})
	return t, nb, fresh
}

// cutRanges cuts buckets, whose entries begin at start[b] (start[nb] is
// the total), into at most k contiguous ranges of about equal entry
// count: range r is buckets [cuts[r], cuts[r+1]).
func cutRanges(start []int, k int) []int {
	nb, n := len(start)-1, start[len(start)-1]
	cuts := []int{0}
	for b := 1; b < nb && len(cuts) < k; b++ {
		if start[b] >= len(cuts)*n/k {
			cuts = append(cuts, b)
		}
	}
	return append(cuts, nb)
}

// foldBucket sorts es by key and folds it into its prefix: duplicate
// keys summed, self-pairs (which the network does not hold) dropped. It
// returns the prefix's length and the radix scratch, grown as needed,
// for the next bucket.
func foldBucket(es, scratch []Entry) (int, []Entry) {
	sorted := es
	if len(es) < radixMinLen {
		slices.SortFunc(es, func(a, b Entry) int { return cmp.Compare(entryKey(a), entryKey(b)) })
	} else {
		if cap(scratch) < len(es) {
			scratch = make([]Entry, len(es))
		}
		sorted = radixSortEntries(es, scratch[:len(es)])
	}
	u := 0
	for _, e := range sorted {
		switch {
		case e.I == e.J:
		case u > 0 && es[u-1].I == e.I && es[u-1].J == e.J:
			es[u-1].W += e.W
		default:
			es[u] = e
			u++
		}
	}
	return u, scratch
}

// forEach calls fn(0), …, fn(n-1) on up to workers goroutines, each
// taking the next index as it frees up; with one worker it runs them in
// order on the calling goroutine.
func forEach(workers, n int, fn func(i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// radixSortEntries sorts es ascending by packed (I, J) key using an LSD
// radix sort with 8-bit digits, with buf (as long as es) as scratch, and
// returns the sorted slice: es or buf, whichever the last pass wrote.
// Passes whose digit is constant across the whole input (common: the
// high ID bytes of a simulation population are mostly zero, and every
// entry of a Coalesce bucket shares the high bits of I) are skipped. The
// sort is stable within each pass, which is what makes LSD correct; ties
// in the full key need no particular order because Coalesce sums their
// weights commutatively.
func radixSortEntries(es, buf []Entry) []Entry {
	if len(es) < 2 {
		return es
	}
	// A cheap OR/AND pre-pass finds the digits that actually vary across
	// the input: a digit is uniform iff its bits agree between the OR and
	// AND of all keys. Simulation IDs rarely fill all four bytes, so this
	// typically eliminates half or more of the histogram increments — the
	// dominant fixed cost of the sort.
	orK, andK := uint64(0), ^uint64(0)
	for _, e := range es {
		k := entryKey(e)
		orK |= k
		andK &= k
	}
	diff := orK ^ andK
	var digitBuf [8]uint
	nd := 0
	for d := uint(0); d < 8; d++ {
		if byte(diff>>(8*d)) != 0 {
			digitBuf[nd] = d
			nd++
		}
	}
	if nd == 0 {
		return es // all keys identical: already sorted
	}
	digits := digitBuf[:nd]
	// One shared histogram pass counting only the varying digits.
	var counts [8][256]int
	for _, e := range es {
		k := entryKey(e)
		for _, d := range digits {
			counts[d][byte(k>>(8*d))]++
		}
	}
	src, dst := es, buf
	for _, d := range digits {
		c := &counts[d]
		// Exclusive prefix sums -> bucket offsets.
		var offs [256]int
		sum := 0
		for b := 0; b < 256; b++ {
			offs[b] = sum
			sum += c[b]
		}
		shift := 8 * d
		for _, e := range src {
			b := byte(entryKey(e) >> shift)
			dst[offs[b]] = e
			offs[b]++
		}
		src, dst = dst, src
	}
	return src
}

// merge2 merges two sorted Tris, summing weights of shared pairs. The
// output is written with indexed stores into exactly-presized slices and
// trimmed once at the end.
func merge2(a, b *Tri) *Tri {
	na, nb := a.NNZ(), b.NNZ()
	oi := make([]uint32, na+nb)
	oj := make([]uint32, na+nb)
	ow := make([]uint32, na+nb)
	i, j, k := 0, 0, 0
	for i < na && j < nb {
		ka := uint64(a.I[i])<<32 | uint64(a.J[i])
		kb := uint64(b.I[j])<<32 | uint64(b.J[j])
		switch {
		case ka < kb:
			oi[k], oj[k], ow[k] = a.I[i], a.J[i], a.W[i]
			i++
		case kb < ka:
			oi[k], oj[k], ow[k] = b.I[j], b.J[j], b.W[j]
			j++
		default:
			oi[k], oj[k], ow[k] = a.I[i], a.J[i], a.W[i]+b.W[j]
			i++
			j++
		}
		k++
	}
	k += copy(oi[k:], a.I[i:])
	copy(oj[k-(na-i):], a.J[i:])
	copy(ow[k-(na-i):], a.W[i:])
	k += copy(oi[k:], b.I[j:])
	copy(oj[k-(nb-j):], b.J[j:])
	copy(ow[k-(nb-j):], b.W[j:])
	return &Tri{I: oi[:k], J: oj[:k], W: ow[:k]}
}

// MergeTris sums already-sorted triangular matrices element-wise, the
// paper's A = Σ A_file over finished networks: a stream's decay fold and
// the merge of per-rank or per-slice networks (Tri is always sorted, so
// Coalesce output qualifies). Nil and empty inputs are skipped, and one
// input comes back as a copy, never aliased. Two inputs take one merge2;
// k > 2 are folded pairwise with merge2, level by level, so each entry is
// copied ⌈log₂ k⌉ times.
func MergeTris(ts ...*Tri) *Tri {
	live := make([]*Tri, 0, len(ts))
	for _, t := range ts {
		if t != nil && t.NNZ() > 0 {
			live = append(live, t)
		}
	}
	if len(live) < 2 {
		live = append(live, &Tri{}) // a lone input is merged into a copy
	}
	for len(live) > 1 {
		next := live[:0]
		for k := 0; k < len(live); k += 2 {
			if k+1 < len(live) {
				next = append(next, merge2(live[k], live[k+1]))
			} else {
				next = append(next, live[k])
			}
		}
		live = next
	}
	return live[0]
}
