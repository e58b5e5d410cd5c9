package rrd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// Framed snapshot format: the crash-safe on-disk layout behind gmetad's
// generational checkpoints. The gob stream of SaveTo/LoadPool detects
// corruption only implicitly (a torn tail usually, but not always,
// breaks the decode); this format makes truncation and bit-rot
// detectable per record:
//
//	magic   "GRRDSNP1" (8 bytes)
//	record  kind (1 byte) | payload length (uint32 LE) |
//	        CRC32-C over kind+length+payload (uint32 LE) | payload
//	kinds   'M' pool metadata (exactly one, first)
//	        'D' one database (key + state), sorted by key
//	        'S' seal trailer (exactly one, last):
//	            record count (uint32 LE) | CRC chain (uint32 LE)
//
// The seal's CRC chain folds every preceding record's CRC in order, so
// a file cut exactly at a record boundary — the one truncation a
// per-record checksum cannot see — still fails to verify, and nothing
// may follow the seal. Database records are written in sorted key
// order, so the same pool state always serializes to the same bytes;
// the crash-replay tests compare durability by byte equality.

// snapMagic opens every framed snapshot.
var snapMagic = [8]byte{'G', 'R', 'R', 'D', 'S', 'N', 'P', '1'}

// Record kinds.
const (
	recMeta = 'M'
	recDB   = 'D'
	recSeal = 'S'
)

// maxSnapshotRecord bounds one record's payload, so a corrupted length
// prefix cannot demand an absurd allocation before its CRC is checked.
const maxSnapshotRecord = 256 << 20

// maxSnapshotRows bounds the ring rows a restored database's spec may
// declare: restore allocates rings from the spec before comparing them
// to the record's data, and a forged spec must not be an allocation
// bomb.
const maxSnapshotRows = 16 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrSnapshotCorrupt tags every framed-snapshot verification failure:
// truncation, checksum mismatch, framing damage, or an unsealed file.
// Callers match it with errors.Is and fall back to an older generation.
var ErrSnapshotCorrupt = errors.New("snapshot corrupt")

// ErrNotSnapshot reports that the stream does not begin with the framed
// snapshot magic; it may be a legacy gob snapshot from SaveTo.
var ErrNotSnapshot = errors.New("not a framed snapshot")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("rrd: %w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
}

// snapFileMeta is the 'M' record payload.
type snapFileMeta struct {
	Version int
	Spec    Spec
	Updates uint64
	Errors  uint64
	DBs     int
}

// snapFileDB is the 'D' record payload.
type snapFileDB struct {
	Key string
	DB  dbSnapshot
}

// writeRecord frames one payload, returning the record's CRC.
func writeRecord(w io.Writer, kind byte, payload []byte) (uint32, error) {
	var hdr [5]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[:])
	crc = crc32.Update(crc, castagnoli, payload)
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(crcb[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return crc, nil
}

// readRecord reads and verifies one record. io.EOF is returned only
// when the stream ends cleanly before the first header byte; any
// partial record is reported as corrupt.
func readRecord(br *bufio.Reader) (kind byte, payload []byte, crc uint32, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, corruptf("truncated record header")
	}
	length := binary.LittleEndian.Uint32(hdr[1:])
	if length > maxSnapshotRecord {
		return 0, nil, 0, corruptf("record declares %d bytes (max %d)", length, maxSnapshotRecord)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(br, crcb[:]); err != nil {
		return 0, nil, 0, corruptf("truncated record checksum")
	}
	payload = make([]byte, length)
	if n, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, 0, corruptf("record truncated at %d of %d payload bytes", n, length)
	}
	want := binary.LittleEndian.Uint32(crcb[:])
	got := crc32.Update(0, castagnoli, hdr[:])
	got = crc32.Update(got, castagnoli, payload)
	if got != want {
		return 0, nil, 0, corruptf("record %q checksum mismatch (got %08x, want %08x)", hdr[0], got, want)
	}
	return hdr[0], payload, want, nil
}

// WriteSnapshot serializes the pool in the framed, checksummed format.
// Each shard is snapshotted under its own lock and everything is
// encoded outside them, so a slow writer never blocks archive updates.
// Output is deterministic: database records are sorted by key, so the
// same pool state always produces the same bytes regardless of shard
// count or map order.
func (p *Pool) WriteSnapshot(w io.Writer) error {
	var dbs []snapFileDB
	meta := snapFileMeta{
		Version: persistVersion,
		Spec:    p.spec,
	}
	for _, s := range p.shards {
		s.lock()
		s.each(func(key string, db *Database) {
			dbs = append(dbs, snapFileDB{Key: key, DB: db.snapshot()})
		})
		meta.Updates += s.updates
		meta.Errors += s.errors
		s.mu.Unlock()
	}
	meta.DBs = len(dbs)
	sort.Slice(dbs, func(i, j int) bool { return dbs[i].Key < dbs[j].Key })

	if _, err := w.Write(snapMagic[:]); err != nil {
		return err
	}
	var chain uint32
	var count uint32
	emit := func(kind byte, v any) error {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			return err
		}
		crc, err := writeRecord(w, kind, buf.Bytes())
		if err != nil {
			return err
		}
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], crc)
		chain = crc32.Update(chain, castagnoli, b[:])
		count++
		return nil
	}
	if err := emit(recMeta, meta); err != nil {
		return err
	}
	for i := range dbs {
		if err := emit(recDB, dbs[i]); err != nil {
			return err
		}
	}
	var seal [8]byte
	binary.LittleEndian.PutUint32(seal[:4], count)
	binary.LittleEndian.PutUint32(seal[4:], chain)
	_, err := writeRecord(w, recSeal, seal[:])
	return err
}

// snapshotSpecSane rejects specs whose ring allocations are out of all
// proportion to any real archive, before restore allocates them.
func snapshotSpecSane(s Spec) error {
	total := 0
	for _, a := range s.Archives {
		if a.Rows <= 0 || a.Rows > maxSnapshotRows {
			return fmt.Errorf("archive declares %d rows", a.Rows)
		}
		total += a.Rows
		if total > maxSnapshotRows {
			return fmt.Errorf("archives declare %d total rows (max %d)", total, maxSnapshotRows)
		}
	}
	return nil
}

// ReadSnapshot reconstructs a pool written by WriteSnapshot, verifying
// every record's checksum and the seal. Any damage — truncation, a
// flipped bit, framing corruption, a missing seal, trailing bytes —
// yields an error wrapping ErrSnapshotCorrupt; a stream that does not
// carry the snapshot magic yields ErrNotSnapshot instead, so callers
// can fall back to the legacy gob decoder. It never panics on
// malformed input.
func ReadSnapshot(r io.Reader) (*Pool, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("rrd: %w", ErrNotSnapshot)
	}
	if magic != snapMagic {
		return nil, fmt.Errorf("rrd: %w", ErrNotSnapshot)
	}

	var pool *Pool
	var meta *snapFileMeta
	var chain uint32
	var count uint32
	for {
		kind, payload, crc, err := readRecord(br)
		if err == io.EOF {
			return nil, corruptf("no seal trailer: snapshot truncated at a record boundary")
		}
		if err != nil {
			return nil, err
		}
		switch kind {
		case recMeta:
			if meta != nil {
				return nil, corruptf("duplicate metadata record")
			}
			var m snapFileMeta
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
				return nil, corruptf("metadata record: %v", err)
			}
			if m.Version != persistVersion {
				return nil, fmt.Errorf("rrd: snapshot version %d, want %d", m.Version, persistVersion)
			}
			if m.DBs < 0 {
				return nil, corruptf("metadata declares %d databases", m.DBs)
			}
			meta = &m
			pool = NewPool(m.Spec)
			pool.shards[0].updates, pool.shards[0].errors = m.Updates, m.Errors
		case recDB:
			if meta == nil {
				return nil, corruptf("database record before metadata")
			}
			var d snapFileDB
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&d); err != nil {
				return nil, corruptf("database record %d: %v", count, err)
			}
			if err := snapshotSpecSane(d.DB.Spec); err != nil {
				return nil, corruptf("database %q: %v", d.Key, err)
			}
			db, err := restore(d.DB)
			if err != nil {
				return nil, corruptf("database %q: %v", d.Key, err)
			}
			if !pool.install(d.Key, db) {
				return nil, corruptf("duplicate database %q", d.Key)
			}
		case recSeal:
			if meta == nil {
				return nil, corruptf("seal before metadata")
			}
			if len(payload) != 8 {
				return nil, corruptf("seal payload is %d bytes, want 8", len(payload))
			}
			wantCount := binary.LittleEndian.Uint32(payload[:4])
			wantChain := binary.LittleEndian.Uint32(payload[4:])
			if wantCount != count || wantChain != chain {
				return nil, corruptf("seal mismatch: file carries %d records (chain %08x), seal declares %d (%08x)",
					count, chain, wantCount, wantChain)
			}
			if pool.Len() != meta.DBs {
				return nil, corruptf("restored %d databases, metadata declares %d", pool.Len(), meta.DBs)
			}
			if _, err := br.ReadByte(); err != io.EOF {
				return nil, corruptf("trailing data after seal")
			}
			return pool, nil
		default:
			return nil, corruptf("unknown record kind %q", kind)
		}
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], crc)
		chain = crc32.Update(chain, castagnoli, b[:])
		count++
	}
}
