package persist

import (
	"fmt"

	"tpminer/internal/interval"
)

// EncodeDatabase appends the WAL's compact varint encoding of db to buf
// and returns the extended slice. The format is the one WAL records use
// for dataset payloads: a uvarint sequence count, then per sequence a
// length-prefixed ID, a uvarint interval count, and per interval a
// length-prefixed symbol plus varint start/end times. It is exported so
// other subsystems (remote shard push) can reuse the codec instead of
// inventing a second wire format.
func EncodeDatabase(buf []byte, db *interval.Database) []byte {
	if n := databaseLen(db); cap(buf)-len(buf) < n {
		buf = append(make([]byte, 0, len(buf)+n), buf...)
	}
	return appendDatabase(buf, db)
}

// DecodeDatabase parses one EncodeDatabase payload. Unlike the WAL
// reader — where a database is followed by further record fields — a
// standalone payload must be consumed exactly, so trailing bytes are
// rejected as corruption.
func DecodeDatabase(data []byte) (*interval.Database, error) {
	c := &Cursor{buf: data}
	db, err := c.database()
	if err != nil {
		return nil, fmt.Errorf("persist: decode database: %w", err)
	}
	if c.off != len(data) {
		return nil, fmt.Errorf("persist: decode database: %d trailing bytes", len(data)-c.off)
	}
	return db, nil
}
