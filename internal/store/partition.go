package store

// Range-partitioned scans: the morsel source for the SPARQL evaluator's
// parallel operators. MatchParts splits the match stream of one triple
// pattern into contiguous segments whose concatenation is exactly the
// MatchAny stream, so a worker pool can scan segments independently and a
// combiner that keeps segment order reproduces the serial scan byte for
// byte. Every access path is a range of one index permutation, so a
// segment is a subrange of it.

// ScanPart streams one contiguous segment of a pattern's match stream. The
// yield callback returns false to stop that segment early. ScanParts are
// read-only over the store and safe to run concurrently, provided the store
// is not mutated meanwhile (the evaluator holds the store read lock).
type ScanPart func(yield func(IDTriple) bool)

// MatchParts partitions the match stream of pat over the given graphs (all
// graphs when empty, like MatchAny) into contiguous segments of roughly
// morsel triples each. Concatenating the segments' streams in order yields
// exactly the MatchAny stream for the same arguments. morsel <= 0 yields a
// single segment per access path.
func (s *Store) MatchParts(graphURIs []string, pat IDTriple, morsel int) []ScanPart {
	if len(graphURIs) == 0 {
		graphURIs = s.order
	}
	var parts []ScanPart
	for _, uri := range graphURIs {
		if g := s.graphs[uri]; g != nil {
			parts = g.appendMatchParts(parts, pat, morsel)
		}
	}
	return parts
}

// appendMatchParts appends the graph's segments for pat to parts.
func (g *Graph) appendMatchParts(parts []ScanPart, pat IDTriple, morsel int) []ScanPart {
	ix := g.ix
	switch {
	case pat.S != 0 && pat.P != 0 && pat.O != 0:
		return append(parts, func(yield func(IDTriple) bool) {
			if ix.contains(pat) {
				yield(pat)
			}
		})
	case pat.S != 0 && pat.P != 0:
		return appendIDChunks(parts, ix.spo.leaf(pat.S, pat.P), morsel, func(o ID) IDTriple {
			return IDTriple{pat.S, pat.P, o}
		})
	case pat.P != 0 && pat.O != 0:
		return appendIDChunks(parts, ix.pos.leaf(pat.P, pat.O), morsel, func(sub ID) IDTriple {
			return IDTriple{sub, pat.P, pat.O}
		})
	case pat.S != 0 && pat.O != 0:
		return appendIDChunks(parts, ix.osp.leaf(pat.O, pat.S), morsel, func(p ID) IDTriple {
			return IDTriple{pat.S, p, pat.O}
		})
	default:
		x, lo, hi := ix.rangeOf(pat)
		for _, chunk := range ChunkBounds(hi-lo, morsel) {
			from, to := lo+chunk[0], lo+chunk[1]
			parts = append(parts, func(yield func(IDTriple) bool) { x.walk(from, to, yield) })
		}
		return parts
	}
}

// appendIDChunks splits one leaf into morsel-sized subslices, mapping each
// stored id to its triple with mk.
func appendIDChunks(parts []ScanPart, ids []ID, morsel int, mk func(ID) IDTriple) []ScanPart {
	for _, chunk := range ChunkBounds(len(ids), morsel) {
		seg := ids[chunk[0]:chunk[1]]
		parts = append(parts, func(yield func(IDTriple) bool) {
			for _, id := range seg {
				if !yield(mk(id)) {
					return
				}
			}
		})
	}
	return parts
}

// ChunkBounds splits [0, n) into [lo, hi) ranges of at most morsel items
// (one range for the whole span when morsel <= 0). n == 0 yields no
// ranges. It is the single definition of morsel boundaries: the scan
// partitioner here and the evaluator's row partitioner both use it.
func ChunkBounds(n, morsel int) [][2]int {
	if n == 0 {
		return nil
	}
	if morsel <= 0 || morsel >= n {
		return [][2]int{{0, n}}
	}
	out := make([][2]int, 0, (n+morsel-1)/morsel)
	for lo := 0; lo < n; lo += morsel {
		hi := lo + morsel
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
