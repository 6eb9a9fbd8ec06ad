package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Checkpoint record plumbing, shared by every DBAYES-family snapshot format:
// a checkpoint is an 8-byte magic, a sequence of little-endian u64 fields,
// and length-prefixed records (u64 length, then the record bytes). The
// tracker's DBAYES03 state files (state.go) and the cluster coordinator's
// DBCLUS01 checkpoints (internal/cluster) are both written and read through
// these helpers, so the framing — and the length-validate-before-allocating
// discipline on the read side — is implemented once. Those two are the
// formats that decode; the tracker's per-cell DBAYES02 format has had no
// reader since DBAYES03 replaced it.

// CkptWriter writes a DBAYES-family checkpoint stream.
type CkptWriter struct {
	bw *bufio.Writer
}

// NewCkptWriter starts a checkpoint on w by writing the 8-byte magic.
func NewCkptWriter(w io.Writer, magic string) (*CkptWriter, error) {
	cw := &CkptWriter{bw: bufio.NewWriter(w)}
	if _, err := cw.bw.WriteString(magic); err != nil {
		return nil, err
	}
	return cw, nil
}

// PutU64 writes one little-endian u64 field.
func (cw *CkptWriter) PutU64(v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := cw.bw.Write(b[:])
	return err
}

// PutRecord writes one length-prefixed record.
func (cw *CkptWriter) PutRecord(b []byte) error {
	if err := cw.PutU64(uint64(len(b))); err != nil {
		return err
	}
	_, err := cw.bw.Write(b)
	return err
}

// Flush flushes the buffered stream to the underlying writer.
func (cw *CkptWriter) Flush() error { return cw.bw.Flush() }

// CkptReader reads a DBAYES-family checkpoint stream.
type CkptReader struct {
	br *bufio.Reader
}

// NewCkptReader checks the 8-byte magic on r and returns a reader positioned
// at the first field.
func NewCkptReader(r io.Reader, magic string) (*CkptReader, error) {
	cr := &CkptReader{br: bufio.NewReader(r)}
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(cr.br, got); err != nil {
		return nil, fmt.Errorf("core: reading snapshot magic: %w", err)
	}
	if string(got) != magic {
		return nil, fmt.Errorf("core: bad snapshot magic %q", got)
	}
	return cr, nil
}

// U64 reads one little-endian u64 field.
func (cr *CkptReader) U64() (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(cr.br, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// RecordExact reads a record whose length must be exactly want bytes — the
// corrupt length is rejected before anything is allocated for it.
func (cr *CkptReader) RecordExact(want uint64) ([]byte, error) {
	n, err := cr.U64()
	if err != nil {
		return nil, err
	}
	if n != want {
		return nil, fmt.Errorf("core: snapshot record of %d bytes, want %d", n, want)
	}
	return cr.readRecord(n)
}

// RecordCapped reads a record of unknown exact size, rejecting lengths above
// limit before allocating.
func (cr *CkptReader) RecordCapped(limit uint64) ([]byte, error) {
	n, err := cr.U64()
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("core: snapshot record of %d bytes exceeds limit %d", n, limit)
	}
	return cr.readRecord(n)
}

func (cr *CkptReader) readRecord(n uint64) ([]byte, error) {
	data := make([]byte, n)
	if _, err := io.ReadFull(cr.br, data); err != nil {
		return nil, err
	}
	return data, nil
}
