// Package snapshot persists a store.Store to a versioned, checksummed
// binary file and reopens it without re-parsing any RDF text — the storage
// half of the system's lifecycle. A snapshot records the dictionary as a
// length-prefixed term table plus each named graph's dictionary-encoded
// triples in SPO order; reopening hands each triple list to the store's
// index build (store.BulkGraph), which skips text scanning, term
// allocation and term re-interning, and skips the build's one full sort
// because the list arrives in SPO order.
//
// # File format (version 3)
//
//	[8]byte  magic "RDFFSNAP"
//	uint32   format version (little endian)
//	uvarint  term count N, then N terms:
//	           byte kind (1 IRI, 2 literal, 3 blank)
//	           uvarint len + bytes value
//	           literals only: uvarint len + bytes datatype,
//	                          uvarint len + bytes language tag
//	uvarint  graph count G, then G graphs:
//	           uvarint len + bytes graph URI
//	           uvarint triple count T, then T triples in strictly
//	           ascending (subject, predicate, object) order:
//	             uvarint subject id, uvarint predicate id, uvarint object id
//	uint32   CRC-32 (IEEE, little endian) of every preceding byte
//
// All ids refer to the term table (1-based; 0 never appears). The trailing
// checksum covers the header too, so a corrupted, truncated, or trailing-
// garbage file is always rejected with a descriptive error rather than
// loaded wrong. Past the checksum the reader still checks everything the
// store relies on: ids in range, each triple list strictly ascending (so
// no duplicates), graph URIs distinct, and every varint in its shortest
// form. A file that passes is therefore exactly the bytes Write produces
// for the store it yields. Versions 1 and 2, which also carried index
// images and a statistics section, are rejected with an
// UnsupportedVersionError; regenerate them from the source data.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// Magic identifies a snapshot file.
const Magic = "RDFFSNAP"

// Version is the only format version this package reads and writes.
const Version = 3

// ErrBadMagic reports that the input does not start with the snapshot magic.
var ErrBadMagic = errors.New("snapshot: not a snapshot file (bad magic)")

// ErrChecksum reports a CRC mismatch: the file is corrupted.
var ErrChecksum = errors.New("snapshot: checksum mismatch (file corrupted)")

// UnsupportedVersionError reports a snapshot written by a format version
// this build does not understand.
type UnsupportedVersionError struct {
	Got uint32
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("snapshot: format version %d not supported (this build reads version %d)", e.Got, Version)
}

// Write serializes st to w in snapshot format.
func Write(w io.Writer, st *store.Store) error {
	cw := &crcWriter{w: bufio.NewWriterSize(w, 1<<16)}
	cw.bytes([]byte(Magic))
	cw.u32(Version)

	terms := st.Dict().Terms()
	cw.uvarint(uint64(len(terms)))
	for _, t := range terms {
		cw.byte(byte(t.Kind))
		cw.str(t.Value)
		if t.Kind == rdf.LiteralKind {
			cw.str(t.Datatype)
			cw.str(t.Lang)
		}
	}

	uris := st.GraphURIs()
	cw.uvarint(uint64(len(uris)))
	for _, uri := range uris {
		cw.str(uri)
		triples := st.Graph(uri).Triples()
		cw.uvarint(uint64(len(triples)))
		for _, t := range triples {
			cw.uvarint(uint64(t.S))
			cw.uvarint(uint64(t.P))
			cw.uvarint(uint64(t.O))
		}
	}

	// The trailer carries the checksum of everything before it, so it is
	// written around the CRC accumulation.
	crc := cw.crc
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	cw.bytes(trailer[:])
	if cw.err != nil {
		return fmt.Errorf("snapshot: write: %w", cw.err)
	}
	return cw.w.Flush()
}

// Read deserializes a snapshot into a fresh store. It fails with ErrBadMagic
// on foreign input, an *UnsupportedVersionError on any format version but
// Version, and ErrChecksum or a descriptive corruption error on damaged
// files.
//
// The whole snapshot is buffered in memory: the checksum is verified in one
// vectorized pass before any byte is interpreted, and every term string is
// then carved as a substring of one arena string covering the term table
// (see readTerms) rather than allocated individually — snapshots are
// several times smaller than the store they describe, and this is a large
// part of why reopening beats re-parsing.
func Read(r io.Reader) (*store.Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return decode(data)
}

// decode interprets a fully-buffered snapshot.
func decode(data []byte) (*store.Store, error) {
	// Minimum well-formed file: magic, version, two zero-count sections,
	// trailer.
	if len(data) < len(Magic) {
		return nil, ErrBadMagic
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	if len(data) < len(Magic)+4+2+4 {
		return nil, truncated(io.ErrUnexpectedEOF)
	}
	version := binary.LittleEndian.Uint32(data[len(Magic):])
	if version != Version {
		return nil, &UnsupportedVersionError{Got: version}
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, ErrChecksum
	}

	p := &parser{data: body, pos: len(Magic) + 4}

	terms, err := readTerms(p)
	if err != nil {
		return nil, err
	}
	dict, err := store.NewDictionaryFromTerms(terms)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	st := store.NewWithDictionary(dict)

	graphCount, err := p.uvarint()
	if err != nil {
		return nil, truncated(err)
	}
	maxID := uint64(dict.Len())
	for i := uint64(0); i < graphCount; i++ {
		uri, err := p.string()
		if err != nil {
			return nil, fmt.Errorf("snapshot: graph %d uri: %w", i, err)
		}
		if st.Graph(uri) != nil {
			return nil, fmt.Errorf("snapshot: graph <%s> appears twice", uri)
		}
		triples, err := readTriples(p, maxID)
		if err != nil {
			return nil, fmt.Errorf("snapshot: graph <%s>: %w", uri, err)
		}
		if err := st.BulkGraph(uri, triples); err != nil {
			return nil, fmt.Errorf("snapshot: graph <%s>: %w", uri, err)
		}
	}
	if p.pos != len(body) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after graph data", len(body)-p.pos)
	}
	return st, nil
}

// WriteFile atomically writes st's snapshot to path: the bytes go to a
// temporary file in the same directory, are synced, and replace path by
// rename, so a crash never leaves a half-written snapshot behind.
func WriteFile(path string, st *store.Store) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := Write(f, st); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// CreateTemp makes the file 0600; match the 0644 the sibling N-Triples
	// dumps get so another user (e.g. a service account) can open it.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadFile opens the snapshot at path. The file is read whole in one
// size-hinted allocation (see Read for why buffering the snapshot is the
// right trade).
func ReadFile(path string) (*store.Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

// readTerms parses the term table in two passes: the first records string
// extents, the second carves every term string out of one arena string
// covering exactly the term-table bytes. Sharing one backing array makes
// term loading allocation-free per term, while copying only the table —
// not the whole file — lets the (much larger) triple and index sections be
// garbage-collected once decoding finishes.
func readTerms(p *parser) ([]rdf.Term, error) {
	count, err := p.uvarint()
	if err != nil {
		return nil, truncated(err)
	}
	if count > store.MaxTerms {
		return nil, fmt.Errorf("snapshot: term table claims %d terms, exceeding the id space", count)
	}
	// Each term takes at least two bytes (kind and value length), which
	// bounds the allocation a corrupt count can cause.
	if count > uint64(len(p.data)-p.pos)/2 {
		return nil, truncated(io.ErrUnexpectedEOF)
	}
	type termRef struct {
		kind               rdf.TermKind
		value, dtype, lang byteSpan
	}
	refs := make([]termRef, 0, count)
	sectionStart := p.pos
	for i := uint64(0); i < count; i++ {
		kind, err := p.byte()
		if err != nil {
			return nil, truncated(err)
		}
		var r termRef
		switch rdf.TermKind(kind) {
		case rdf.IRIKind, rdf.LiteralKind, rdf.BlankKind:
			r.kind = rdf.TermKind(kind)
		default:
			return nil, fmt.Errorf("snapshot: term %d has invalid kind byte %d", i+1, kind)
		}
		if r.value, err = p.skipString(); err != nil {
			return nil, fmt.Errorf("snapshot: term %d: %w", i+1, err)
		}
		if r.kind == rdf.LiteralKind {
			if r.dtype, err = p.skipString(); err != nil {
				return nil, fmt.Errorf("snapshot: term %d datatype: %w", i+1, err)
			}
			if r.lang, err = p.skipString(); err != nil {
				return nil, fmt.Errorf("snapshot: term %d language: %w", i+1, err)
			}
		}
		refs = append(refs, r)
	}
	arena := string(p.data[sectionStart:p.pos])
	cut := func(s byteSpan) string { return arena[s.start-sectionStart : s.end-sectionStart] }
	terms := make([]rdf.Term, len(refs))
	for i, r := range refs {
		terms[i] = rdf.Term{Kind: r.kind, Value: cut(r.value)}
		if r.kind == rdf.LiteralKind {
			terms[i].Datatype = cut(r.dtype)
			terms[i].Lang = cut(r.lang)
		}
	}
	return terms, nil
}

// readTriples reads one graph's triple list, checking that every id is in
// range and that the list is strictly ascending in SPO order.
func readTriples(p *parser, maxID uint64) ([]store.IDTriple, error) {
	count, err := p.uvarint()
	if err != nil {
		return nil, truncated(err)
	}
	// Each triple takes at least three bytes, which bounds the allocation
	// a corrupt count can cause.
	if count > uint64(len(p.data)-p.pos)/3 {
		return nil, truncated(io.ErrUnexpectedEOF)
	}
	triples := make([]store.IDTriple, 0, count)
	for i := uint64(0); i < count; i++ {
		s, err1 := p.id(maxID)
		pr, err2 := p.id(maxID)
		o, err3 := p.id(maxID)
		if err := errors.Join(err1, err2, err3); err != nil {
			return nil, fmt.Errorf("triple %d: %w", i, err)
		}
		t := store.IDTriple{S: s, P: pr, O: o}
		if i > 0 && !less(triples[i-1], t) {
			return nil, fmt.Errorf("triple %d (%d %d %d) does not follow its predecessor in strictly ascending SPO order", i, s, pr, o)
		}
		triples = append(triples, t)
	}
	return triples, nil
}

// less orders triples by subject, then predicate, then object.
func less(a, b store.IDTriple) bool {
	if a.S != b.S {
		return a.S < b.S
	}
	if a.P != b.P {
		return a.P < b.P
	}
	return a.O < b.O
}

func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("snapshot: truncated file: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("snapshot: %w", err)
}

// parser walks the checksum-verified body.
type parser struct {
	data []byte
	pos  int
}

func (p *parser) byte() (byte, error) {
	if p.pos >= len(p.data) {
		return 0, io.ErrUnexpectedEOF
	}
	b := p.data[p.pos]
	p.pos++
	return b, nil
}

// id reads one uvarint-encoded dictionary id and range-checks it.
func (p *parser) id(maxID uint64) (store.ID, error) {
	v, err := p.uvarint()
	if err != nil {
		return 0, truncated(err)
	}
	if v == 0 || v > maxID {
		return 0, fmt.Errorf("id %d outside the %d-term dictionary", v, maxID)
	}
	return store.ID(v), nil
}

// uvarint reads one varint, rejecting overlong encodings (a multi-byte
// varint whose last byte is zero), which Write never produces.
func (p *parser) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.data[p.pos:])
	if n <= 0 {
		if n == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, errors.New("malformed varint")
	}
	if n > 1 && p.data[p.pos+n-1] == 0 {
		return 0, errors.New("overlong varint")
	}
	p.pos += n
	return v, nil
}

// string reads a length-prefixed string as a fresh copy; used for the few
// strings outside the term table (graph URIs), where a copy is cheaper than
// pinning the file buffer.
func (p *parser) string() (string, error) {
	n, err := p.uvarint()
	if err != nil {
		return "", truncated(err)
	}
	if n > uint64(len(p.data)-p.pos) {
		return "", truncated(io.ErrUnexpectedEOF)
	}
	s := string(p.data[p.pos : p.pos+int(n)])
	p.pos += int(n)
	return s, nil
}

// byteSpan is a [start, end) byte range within the snapshot body.
type byteSpan struct{ start, end int }

// skipString advances past a length-prefixed string, returning its byte
// extent for later arena slicing.
func (p *parser) skipString() (byteSpan, error) {
	var s byteSpan
	n, err := p.uvarint()
	if err != nil {
		return s, truncated(err)
	}
	if n > uint64(len(p.data)-p.pos) {
		return s, truncated(io.ErrUnexpectedEOF)
	}
	s.start = p.pos
	p.pos += int(n)
	s.end = p.pos
	return s, nil
}

// crcWriter accumulates a CRC over everything written and holds the first
// error so call sites stay linear.
type crcWriter struct {
	w       *bufio.Writer
	crc     uint32
	err     error
	scratch [binary.MaxVarintLen64]byte
}

func (cw *crcWriter) bytes(p []byte) {
	if cw.err != nil {
		return
	}
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	_, cw.err = cw.w.Write(p)
}

func (cw *crcWriter) byte(b byte) {
	cw.scratch[0] = b
	cw.bytes(cw.scratch[:1])
}

func (cw *crcWriter) u32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	cw.bytes(buf[:])
}

func (cw *crcWriter) uvarint(v uint64) {
	n := binary.PutUvarint(cw.scratch[:], v)
	cw.bytes(cw.scratch[:n])
}

func (cw *crcWriter) str(s string) {
	cw.uvarint(uint64(len(s)))
	if cw.err != nil {
		return
	}
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, []byte(s))
	_, cw.err = cw.w.WriteString(s)
}
