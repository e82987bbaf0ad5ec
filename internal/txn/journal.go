package txn

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"servicebroker/internal/qos"
)

// JournalRecord is one journaled idempotency outcome. The journal is the
// broker's crash-safe memory: replaying it after a restart re-arms the
// idempotency table, so a duplicate that arrives at the restarted broker is
// still answered with the first outcome instead of re-executing.
//
// The on-disk format is one JSON object per line ("\n"-terminated), appended
// only; a record counts once its newline is written. Key is the composite
// IdemKey (txn \x1f step \x1f access key); Payload round-trips through
// JSON's base64 encoding.
type JournalRecord struct {
	Key      string `json:"key"`
	Status   int    `json:"status"`
	Fidelity int    `json:"fidelity"`
	Payload  []byte `json:"payload,omitempty"`
}

// Journal is an append-only transaction journal. Each append is one write to
// the file before it returns, so every record survives a process crash; a torn
// final line (the process died mid-write) is skipped by Replay and cut off
// by the next OpenJournal. Safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	sync   bool
	closed bool
}

// OpenJournal opens (creating if needed) the append-only journal at path,
// first cutting any torn tail back to the last newline so the next record
// starts on a line of its own. With fsync true every append is additionally
// fdatasync'd, surviving power loss at a heavy latency cost; false (the usual
// choice) survives process crashes — the write leaves the data with the
// kernel.
func OpenJournal(path string, fsync bool) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("txn: open journal: %w", err)
	}
	if err := cutTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("txn: cut torn journal tail: %w", err)
	}
	return &Journal{f: f, sync: fsync}, nil
}

// cutTornTail truncates f just after its last newline, dropping the
// unterminated bytes a crash mid-append leaves behind.
func cutTornTail(f *os.File) error {
	info, err := f.Stat()
	if err != nil {
		return err
	}
	end, keep := info.Size(), int64(0)
	buf := make([]byte, 4096)
	for off := end; off > 0; {
		n := min(off, int64(len(buf)))
		off -= n
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			keep = off + int64(i) + 1
			break
		}
	}
	if keep == end {
		return nil
	}
	return f.Truncate(keep)
}

// ErrJournalClosed is returned by Append after Close.
var ErrJournalClosed = errors.New("txn: journal closed")

// Append writes one record.
func (j *Journal) Append(rec JournalRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("txn: journal encode: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrJournalClosed
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("txn: journal append: %w", err)
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("txn: journal sync: %w", err)
		}
	}
	return nil
}

// AppendOutcome journals one idempotency outcome under its composite key.
func (j *Journal) AppendOutcome(key string, out Outcome) error {
	return j.Append(JournalRecord{
		Key:      key,
		Status:   out.Status,
		Fidelity: int(out.Fidelity),
		Payload:  out.Payload,
	})
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}

// ReplayJournal reads the journal at path, invoking fn for each intact
// record in append order, and returns how many records were replayed. A
// missing file replays zero records (first boot); an unterminated final
// line — the signature of a crash mid-append — is skipped silently, but
// corruption anywhere earlier is an error (the file is damaged, not torn).
func ReplayJournal(path string, fn func(JournalRecord)) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("txn: open journal: %w", err)
	}
	defer f.Close()

	r := bufio.NewReader(f)
	n := 0
	for {
		line, err := r.ReadBytes('\n')
		atEOF := errors.Is(err, io.EOF)
		if err != nil && !atEOF {
			return n, fmt.Errorf("txn: read journal: %w", err)
		}
		if atEOF {
			// Empty, or a torn tail from a crash mid-append: the records
			// before it are all there is.
			return n, nil
		}
		var rec JournalRecord
		if uerr := json.Unmarshal(line, &rec); uerr != nil {
			return n, fmt.Errorf("txn: journal record %d corrupt: %w", n+1, uerr)
		}
		fn(rec)
		n++
	}
}

// RestoreTable replays the journal at path into table, returning the number
// of outcomes re-armed — the brokerd restart path in one call.
func RestoreTable(path string, table *IdemTable) (int, error) {
	return ReplayJournal(path, func(rec JournalRecord) {
		table.Restore(rec.Key, Outcome{
			Status:   rec.Status,
			Fidelity: qos.Fidelity(rec.Fidelity),
			Payload:  rec.Payload,
		})
	})
}
