package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"rdfframes/internal/rdf"
)

// Write-ahead log: durability for mutation batches without an explicit
// snapshot write. Every committed batch is one length-prefixed,
// CRC-checksummed record fsync'd to disk before ApplyBatch runs, so after a
// crash the store recovers to exactly the committed batches by replaying
// the log onto the last snapshot.
//
// File layout:
//
//	magic "RDFFWAL1" (8 bytes)
//	record*  where record = payloadLen uint32 LE
//	                      | crc32(payload) uint32 LE (IEEE)
//	                      | payload
//
// Record payload:
//
//	seq       uvarint   — 1-based batch sequence number
//	token     string    — uvarint length + bytes; idempotency token ("" ok)
//	opCount   uvarint
//	op*       where op  = opcode byte (1 insert, 2 delete)
//	                    | graph URI string (uvarint length + bytes)
//	                    | subject, predicate, object (rdf binary term codec)
//
// Recovery reads records until EOF or the first damaged record (short
// header, short payload, CRC mismatch, or malformed payload). Everything
// before the damage is the committed prefix; the damaged tail — a torn
// write from the crash — is truncated away so the reopened log appends
// cleanly after the last good record. Kill-9 at any byte offset therefore
// recovers to a prefix of committed batches, never a partial batch.

// walMagic identifies a WAL file and its format version.
const walMagic = "RDFFWAL1"

const (
	walOpInsert byte = 1
	walOpDelete byte = 2
)

// walMaxRecord bounds a record's payload length; a longer claimed length is
// treated as corruption rather than an allocation request.
const walMaxRecord = 1 << 30

// WALBatch is one committed batch as recovered from the log.
type WALBatch struct {
	// Seq is the batch's 1-based sequence number in commit order.
	Seq uint64
	// Token is the idempotency token the batch was committed under ("" when
	// the writer supplied none).
	Token string
	// Ops are the batch's ground mutations in order.
	Ops []UpdateOp
}

// Recovery reports what OpenWAL found in an existing log.
type Recovery struct {
	// Batches holds every committed batch in commit order.
	Batches []WALBatch
	// Damage describes the first damaged record when the log had a torn or
	// corrupt tail, nil for a clean log. The damage is informational — the
	// tail was truncated and the log is usable — but callers should surface
	// it.
	Damage error
	// DroppedBytes is the size of the truncated tail (0 for a clean log).
	DroppedBytes int64
}

// WAL is an append-only write-ahead log. Append is not safe for concurrent
// use; the update evaluator serializes writers (engine.updateMu).
type WAL struct {
	f    *os.File
	path string
	seq  uint64            // last committed sequence number
	seen map[string]uint64 // idempotency token -> seq
	buf  []byte            // payload scratch, reused across appends
}

// OpenWAL opens (or creates) the log at path, replaying any existing
// records. The returned Recovery carries the committed batches to apply on
// top of the caller's snapshot; a torn or corrupt tail is reported in
// Recovery.Damage and truncated so the log accepts new appends.
func OpenWAL(path string) (*WAL, *Recovery, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	w := &WAL{f: f, path: path, seen: make(map[string]uint64)}
	rec, err := w.recover()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, rec, nil
}

// recover scans the log, validating every record, truncating the first
// damaged one and everything after it.
func (w *WAL) recover() (*Recovery, error) {
	info, err := w.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("wal: stat: %w", err)
	}
	size := info.Size()
	if size == 0 {
		// Fresh log: write the magic.
		if _, err := w.f.Write([]byte(walMagic)); err != nil {
			return nil, fmt.Errorf("wal: write magic: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return nil, fmt.Errorf("wal: sync magic: %w", err)
		}
		return &Recovery{}, nil
	}

	rec := &Recovery{}
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(w.f, magic); err != nil || string(magic) != walMagic {
		// A file too short for the magic, or with the wrong one, is not a
		// WAL at all — refuse rather than truncate someone else's data.
		return nil, fmt.Errorf("wal: %s is not a WAL file (bad magic)", w.path)
	}

	good := int64(len(walMagic)) // offset past the last intact record
	var header [8]byte
	for good < size {
		n, err := io.ReadFull(w.f, header[:])
		if err != nil {
			rec.Damage = fmt.Errorf("wal: record at offset %d: short header (%d of 8 bytes)", good, n)
			break
		}
		payloadLen := binary.LittleEndian.Uint32(header[0:4])
		wantCRC := binary.LittleEndian.Uint32(header[4:8])
		if payloadLen > walMaxRecord {
			rec.Damage = fmt.Errorf("wal: record at offset %d: implausible length %d", good, payloadLen)
			break
		}
		payload := make([]byte, payloadLen)
		if n, err := io.ReadFull(w.f, payload); err != nil {
			rec.Damage = fmt.Errorf("wal: record at offset %d: short payload (%d of %d bytes)", good, n, payloadLen)
			break
		}
		if got := crc32.ChecksumIEEE(payload); got != wantCRC {
			rec.Damage = fmt.Errorf("wal: record at offset %d: CRC mismatch (stored %08x, computed %08x)", good, wantCRC, got)
			break
		}
		batch, err := decodeWALBatch(payload)
		if err != nil {
			rec.Damage = fmt.Errorf("wal: record at offset %d: %w", good, err)
			break
		}
		rec.Batches = append(rec.Batches, batch)
		w.seq = batch.Seq
		if batch.Token != "" {
			w.seen[batch.Token] = batch.Seq
		}
		good += 8 + int64(payloadLen)
	}

	if rec.Damage != nil {
		rec.DroppedBytes = size - good
		if err := w.f.Truncate(good); err != nil {
			return nil, fmt.Errorf("wal: truncate damaged tail: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return nil, fmt.Errorf("wal: sync after truncate: %w", err)
		}
	}
	if _, err := w.f.Seek(good, io.SeekStart); err != nil {
		return nil, fmt.Errorf("wal: seek to append position: %w", err)
	}
	return rec, nil
}

// Append commits one batch: the record is written and fsync'd before Append
// returns, so a batch the caller goes on to apply is always recoverable.
// token may be empty; a non-empty token is remembered for Seen. Returns the
// batch's sequence number.
func (w *WAL) Append(token string, ops []UpdateOp) (uint64, error) {
	seq := w.seq + 1
	buf := w.buf[:0]
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(token)))
	buf = append(buf, token...)
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		opcode := walOpDelete
		if op.Insert {
			opcode = walOpInsert
		}
		buf = append(buf, opcode)
		buf = binary.AppendUvarint(buf, uint64(len(op.Graph)))
		buf = append(buf, op.Graph...)
		buf = rdf.AppendTerm(buf, op.Triple.S)
		buf = rdf.AppendTerm(buf, op.Triple.P)
		buf = rdf.AppendTerm(buf, op.Triple.O)
	}
	w.buf = buf

	var header [8]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(buf)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(buf))
	if _, err := w.f.Write(header[:]); err != nil {
		return 0, fmt.Errorf("wal: append header: %w", err)
	}
	if _, err := w.f.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: append payload: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return 0, fmt.Errorf("wal: fsync: %w", err)
	}
	w.seq = seq
	if token != "" {
		w.seen[token] = seq
	}
	return seq, nil
}

// Seen reports whether a batch with the given idempotency token is already
// committed in the log, and its sequence number. A retried write whose
// token is Seen was applied — the client's retry policy uses this to make
// write retries safe.
func (w *WAL) Seen(token string) (uint64, bool) {
	if token == "" {
		return 0, false
	}
	seq, ok := w.seen[token]
	return seq, ok
}

// Seq returns the last committed batch sequence number (0 for an empty log).
func (w *WAL) Seq() uint64 { return w.seq }

// Size returns the log's current size in bytes.
func (w *WAL) Size() (int64, error) {
	info, err := w.f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// Reset discards every record, restarting the log after the store state has
// been made durable some other way (a snapshot write). Sequence numbers
// continue from where they were so a token's seq stays unique across resets.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if _, err := w.f.Seek(int64(len(walMagic)), io.SeekStart); err != nil {
		return fmt.Errorf("wal: reset seek: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: reset sync: %w", err)
	}
	w.seen = make(map[string]uint64)
	return nil
}

// Close closes the log file.
func (w *WAL) Close() error { return w.f.Close() }

// decodeWALBatch decodes one record payload.
func decodeWALBatch(payload []byte) (WALBatch, error) {
	var b WALBatch
	seq, n := binary.Uvarint(payload)
	if n <= 0 {
		return b, fmt.Errorf("bad seq")
	}
	b.Seq = seq
	payload = payload[n:]

	tokLen, n := binary.Uvarint(payload)
	if n <= 0 || uint64(len(payload)-n) < tokLen {
		return b, fmt.Errorf("bad token length")
	}
	b.Token = string(payload[n : n+int(tokLen)])
	payload = payload[n+int(tokLen):]

	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return b, fmt.Errorf("bad op count")
	}
	payload = payload[n:]
	b.Ops = make([]UpdateOp, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(payload) == 0 {
			return b, fmt.Errorf("op %d: missing opcode", i)
		}
		var op UpdateOp
		switch payload[0] {
		case walOpInsert:
			op.Insert = true
		case walOpDelete:
		default:
			return b, fmt.Errorf("op %d: unknown opcode %d", i, payload[0])
		}
		payload = payload[1:]

		gLen, n := binary.Uvarint(payload)
		if n <= 0 || uint64(len(payload)-n) < gLen {
			return b, fmt.Errorf("op %d: bad graph length", i)
		}
		op.Graph = string(payload[n : n+int(gLen)])
		payload = payload[n+int(gLen):]

		for j, dst := range []*rdf.Term{&op.Triple.S, &op.Triple.P, &op.Triple.O} {
			t, used, err := rdf.DecodeTerm(payload)
			if err != nil {
				return b, fmt.Errorf("op %d term %d: %w", i, j, err)
			}
			*dst = t
			payload = payload[used:]
		}
		b.Ops = append(b.Ops, op)
	}
	if len(payload) != 0 {
		return b, fmt.Errorf("%d trailing bytes after last op", len(payload))
	}
	return b, nil
}

// Replay applies the recovered batches to the store in commit order. Ops
// are ground inserts/deletes, so replay is idempotent: re-applying a batch
// the snapshot already contains is a no-op. The batches go to the store as
// one ApplyBatch, whose op-by-op counting gives the same result as applying
// them one at a time while rebuilding each graph's index once. Returns the
// total triples changed.
func (rec *Recovery) Replay(s *Store) (changed int, err error) {
	var ops []UpdateOp
	for _, b := range rec.Batches {
		ops = append(ops, b.Ops...)
	}
	res, err := s.ApplyBatch(ops)
	if err != nil {
		return 0, fmt.Errorf("wal: replay: %w", err)
	}
	return res.Inserted + res.Deleted, nil
}
