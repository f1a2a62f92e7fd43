package store

import (
	"cmp"
	"slices"
	"sort"
)

// A graph's index is four sorted permutations of its triples — SPO, PSO,
// POS and OSP — each a three-level trie stored in flat arrays, in the
// manner of RDF-3X and Hexastore. Every access path is a contiguous range
// of one permutation, so matches, counts, statistics and the sorted runs
// the join executor intersects are all range reads with no per-graph side
// structures. The index is immutable: every write merges its changes into
// a new one (see apply) and swaps it in under the store's write lock.

// order names a permutation by which triple positions sit at its three
// levels.
type order uint8

const (
	orderSPO order = iota
	orderPSO
	orderPOS
	orderOSP
)

// key maps a triple to its (level 1, level 2, level 3) ids in order o.
func (o order) key(t IDTriple) (a, b, c ID) {
	switch o {
	case orderSPO:
		return t.S, t.P, t.O
	case orderPSO:
		return t.P, t.S, t.O
	case orderPOS:
		return t.P, t.O, t.S
	default:
		return t.O, t.S, t.P
	}
}

// triple is the inverse of key.
func (o order) triple(a, b, c ID) IDTriple {
	switch o {
	case orderSPO:
		return IDTriple{a, b, c}
	case orderPSO:
		return IDTriple{b, a, c}
	case orderPOS:
		return IDTriple{c, a, b}
	default:
		return IDTriple{b, c, a}
	}
}

// perm is one permutation as a trie in flat arrays. Level 1 maps an id to
// an offset: firsts holds the sorted distinct level-1 ids, and the level-2
// entries of firsts[i] are heads[i]..heads[i+1]. Level-2 entry j holds the
// distinct key keys[j], and its leaf is ids[offs[j]:offs[j+1]]: the sorted
// level-3 ids of the pair. A position in ids is a triple; the triples of
// one level-1 id are contiguous.
type perm struct {
	ord    order
	firsts []ID
	heads  []uint32
	keys   []ID
	offs   []uint32
	ids    []ID
}

// span returns the level-2 range of level-1 id a.
func (x *perm) span(a ID) (lo, hi int) {
	i, ok := slices.BinarySearch(x.firsts, a)
	if !ok {
		return 0, 0
	}
	return int(x.heads[i]), int(x.heads[i+1])
}

// keysOf returns the sorted distinct level-2 keys under a, capped so that
// an append by the caller can never write into the index.
func (x *perm) keysOf(a ID) []ID {
	lo, hi := x.span(a)
	if lo == hi {
		return nil
	}
	return x.keys[lo:hi:hi]
}

// positions returns the range of positions (triples) under a.
func (x *perm) positions(a ID) (lo, hi int) {
	klo, khi := x.span(a)
	return int(x.offs[klo]), int(x.offs[khi])
}

// leaf returns the sorted level-3 ids of the pair (a, b), or nil.
func (x *perm) leaf(a, b ID) []ID {
	lo, hi := x.span(a)
	j, ok := slices.BinarySearch(x.keys[lo:hi], b)
	if !ok {
		return nil
	}
	start, end := x.offs[lo+j], x.offs[lo+j+1]
	return x.ids[start:end:end]
}

// eachKey calls f for every level-1 id, in ascending order, with the range
// of positions it owns.
func (x *perm) eachKey(f func(a ID, lo, hi int)) {
	for i, a := range x.firsts {
		f(a, int(x.offs[x.heads[i]]), int(x.offs[x.heads[i+1]]))
	}
}

// walk yields the triples at positions [from, to) in permutation order.
// It reports false when yield stopped it.
func (x *perm) walk(from, to int, yield func(IDTriple) bool) bool {
	if from >= to {
		return true
	}
	// The leaf holding position from, and the level-1 entry owning it.
	j := sort.Search(len(x.keys), func(j int) bool { return int(x.offs[j+1]) > from })
	i := sort.Search(len(x.firsts), func(i int) bool { return int(x.heads[i+1]) > j })
	for pos := from; pos < to; j++ {
		for int(x.heads[i+1]) <= j {
			i++
		}
		a, b, end := x.firsts[i], x.keys[j], min(int(x.offs[j+1]), to)
		for ; pos < end; pos++ {
			if !yield(x.ord.triple(a, b, x.ids[pos])) {
				return false
			}
		}
	}
	return true
}

// entry is one triple keyed for a permutation: the level-1 id and the
// packed (level 2, level 3) pair.
type entry struct {
	a  ID
	bc uint64
}

func cmpEntry(x, y entry) int {
	if x.a != y.a {
		return cmp.Compare(x.a, y.a)
	}
	return cmp.Compare(x.bc, y.bc)
}

// digit returns byte d of the entry's 12-byte key, least significant first.
func (e entry) digit(d int) int {
	if d < 8 {
		return int(e.bc>>(8*d)) & 0xff
	}
	return int(e.a>>(8*(d-8))) & 0xff
}

// sortEntries sorts es by (a, bc) with a stable least-significant-digit
// radix sort over the key's bytes from byte from up, skipping bytes on which
// all entries agree (the high bytes of every id in a dictionary of under
// 2^24 terms). from = 8 sorts by a alone, which suffices when es is already
// ordered by bc. The cost is linear, where a comparison sort was the bulk of
// index builds; already sorted input (a snapshot's SPO list) costs one check.
func sortEntries(es []entry, from int) {
	if slices.IsSortedFunc(es, cmpEntry) {
		return
	}
	src, dst := es, make([]entry, len(es))
	for d := from; d < 12; d++ {
		var next [256]int
		for _, e := range src {
			next[e.digit(d)]++
		}
		if next[src[0].digit(d)] == len(src) {
			continue
		}
		sum := 0
		for k, n := range next {
			next[k], sum = sum, sum+n
		}
		for _, e := range src {
			k := e.digit(d)
			dst[next[k]] = e
			next[k]++
		}
		src, dst = dst, src
	}
	copy(es, src)
}

// keyed returns ts as entries of order o, sorted and without duplicates,
// sorting from key byte from (see sortEntries).
func keyed(o order, ts []IDTriple, from int) []entry {
	es := make([]entry, len(ts))
	for i, t := range ts {
		a, b, c := o.key(t)
		es[i] = entry{a, uint64(b)<<32 | uint64(c)}
	}
	sortEntries(es, from)
	return slices.Compact(es)
}

// entries lists the permutation's triples as entries, in order.
func (x *perm) entries() []entry {
	es := make([]entry, 0, len(x.ids))
	for i, a := range x.firsts {
		for j := x.heads[i]; j < x.heads[i+1]; j++ {
			for _, c := range x.ids[x.offs[j]:x.offs[j+1]] {
				es = append(es, entry{a, uint64(x.keys[j])<<32 | uint64(c)})
			}
		}
	}
	return es
}

// merge returns old with ins added and del removed. All three are sorted;
// ins must be absent from old and del present in it.
func merge(old, ins, del []entry) []entry {
	out := make([]entry, 0, len(old)+len(ins)-len(del))
	for _, e := range old {
		for len(ins) > 0 && cmpEntry(ins[0], e) < 0 {
			out = append(out, ins[0])
			ins = ins[1:]
		}
		if len(del) > 0 && del[0] == e {
			del = del[1:]
			continue
		}
		out = append(out, e)
	}
	return append(out, ins...)
}

// buildPerm lays out sorted, duplicate-free entries of order o as a trie.
func buildPerm(o order, es []entry) perm {
	// Count the distinct level-1 ids and pairs so the arrays are allocated
	// at their exact size.
	firsts, pairs := 0, 0
	for i, e := range es {
		if i == 0 || e.a != es[i-1].a {
			firsts++
			pairs++
		} else if e.bc>>32 != es[i-1].bc>>32 {
			pairs++
		}
	}
	x := perm{
		ord:    o,
		firsts: make([]ID, 0, firsts),
		heads:  make([]uint32, 0, firsts+1),
		keys:   make([]ID, 0, pairs),
		offs:   make([]uint32, 0, pairs+1),
		ids:    make([]ID, len(es)),
	}
	for i, e := range es {
		newFirst := i == 0 || e.a != es[i-1].a
		if newFirst {
			x.firsts = append(x.firsts, e.a)
			x.heads = append(x.heads, uint32(len(x.keys)))
		}
		if newFirst || e.bc>>32 != es[i-1].bc>>32 {
			x.keys = append(x.keys, ID(e.bc>>32))
			x.offs = append(x.offs, uint32(i))
		}
		x.ids[i] = ID(e.bc)
	}
	x.heads = append(x.heads, uint32(len(x.keys)))
	x.offs = append(x.offs, uint32(len(es)))
	return x
}

// index is a graph's complete index: the four permutations plus the sorted
// node set (every subject and object).
type index struct {
	spo, pso, pos, osp perm
	nodes              []ID
}

// perms lists the permutations by order.
func (ix *index) perms() []*perm { return []*perm{&ix.spo, &ix.pso, &ix.pos, &ix.osp} }

// newIndex builds the index of ts, dropping duplicates. ts is only read.
// Only SPO needs a full sort: walking SPO yields each (p, s, o) and
// (o, s, p) group already ordered by its last two levels, and walking OSP
// does the same for POS, so those permutations sort by their first level
// alone.
func newIndex(ts []IDTriple) *index {
	ix := &index{}
	ix.spo = buildPerm(orderSPO, keyed(orderSPO, ts, 0))
	spo := ix.spo.all()
	ix.pso = buildPerm(orderPSO, keyed(orderPSO, spo, 8))
	ix.osp = buildPerm(orderOSP, keyed(orderOSP, spo, 8))
	ix.pos = buildPerm(orderPOS, keyed(orderPOS, ix.osp.all(), 8))
	ix.nodes = union(ix.spo.firsts, ix.osp.firsts)
	return ix
}

// apply returns a new index holding ix's triples with ins added and del
// removed: each permutation is merged in order with the sorted changes, so
// a write costs time linear in the graph. ins may repeat triples but must
// not hold present ones; del must hold only present triples.
func (ix *index) apply(ins, del []IDTriple) *index {
	if len(ix.spo.ids) == 0 {
		return newIndex(ins) // nothing to merge with: a loader's first write
	}
	next := &index{}
	old := ix.perms()
	for o, x := range next.perms() {
		*x = buildPerm(order(o), merge(old[o].entries(), keyed(order(o), ins, 0), keyed(order(o), del, 0)))
	}
	next.nodes = union(next.spo.firsts, next.osp.firsts)
	return next
}

// union merges two sorted, duplicate-free id slices.
func union(x, y []ID) []ID {
	out := make([]ID, 0, len(x)+len(y))
	for len(x) > 0 || len(y) > 0 {
		switch {
		case len(y) == 0 || len(x) > 0 && x[0] < y[0]:
			out, x = append(out, x[0]), x[1:]
		case len(x) == 0 || y[0] < x[0]:
			out, y = append(out, y[0]), y[1:]
		default:
			out, x, y = append(out, x[0]), x[1:], y[1:]
		}
	}
	return out
}

// rangeOf resolves a pattern with at most one bound position to the
// permutation led by that position (SPO for the full scan) and the range of
// positions holding its matches.
func (ix *index) rangeOf(pat IDTriple) (x *perm, lo, hi int) {
	switch {
	case pat.S != 0:
		x = &ix.spo
		lo, hi = x.positions(pat.S)
	case pat.P != 0:
		x = &ix.pso
		lo, hi = x.positions(pat.P)
	case pat.O != 0:
		x = &ix.osp
		lo, hi = x.positions(pat.O)
	default:
		x = &ix.spo
		hi = len(x.ids)
	}
	return x, lo, hi
}

// all returns every triple in permutation order as a fresh slice.
func (x *perm) all() []IDTriple {
	out := make([]IDTriple, 0, len(x.ids))
	x.walk(0, len(x.ids), func(t IDTriple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// contains reports whether the fully-bound triple t is present.
func (ix *index) contains(t IDTriple) bool {
	_, ok := slices.BinarySearch(ix.spo.leaf(t.S, t.P), t.O)
	return ok
}
