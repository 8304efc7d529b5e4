package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Journal is an append-only log of enveloped payloads, one JSON line per
// entry — the resume medium for incremental workloads (sweep grids):
// each completed unit is appended as it finishes, and a restart replays
// the journal to skip work already done. Entries are validated on
// replay (format, version, digest); an unterminated final line — the
// footprint of a crash mid-append, since Append writes the newline
// last — is dropped and truncated away so the journal stays appendable.
// Any newline-terminated line that fails validation is an error,
// wherever it sits: that is durable data that rotted, not an
// interrupted write. An append that fails without a crash (a short
// write, a failed fsync) is truncated back to the last complete entry
// before Append returns, so between appends the file holds complete
// entries only.
//
// Append is safe for concurrent use (the sweep runner appends from its
// worker pool).
type Journal struct {
	mu   sync.Mutex
	f    journalFile
	off  int64 // end of the last complete entry
	path string
}

// journalFile is the part of *os.File a Journal writes through.
type journalFile interface {
	WriteAt(b []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// OpenJournal opens (creating if needed) the journal at path and replays
// its entries. The returned journal is positioned for appending.
func OpenJournal(path string) (*Journal, []Envelope, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}

	var entries []Envelope
	valid := 0 // bytes covered by intact entries
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			// No terminating newline: a torn tail from a crash mid-append.
			break
		}
		line := raw[off : off+nl]
		off += nl + 1
		if len(bytes.TrimSpace(line)) == 0 {
			valid = off
			continue
		}
		// A newline-terminated line that fails to parse or validate is not
		// a torn append (Append writes the newline last, so a crash leaves
		// an unterminated tail): it is durable data that rotted, and the
		// journal reports it rather than silently truncating evidence.
		var env Envelope
		if err := json.Unmarshal(line, &env); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: journal %s entry %d: %w", path, len(entries), err)
		}
		if _, err := env.Open(""); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: journal %s entry %d: %w", path, len(entries), err)
		}
		entries = append(entries, env)
		valid = off
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// Truncate away any torn tail so the next append starts a clean line.
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f, off: int64(valid), path: path}, entries, nil
}

// Append seals payload into an envelope and appends it as one line,
// fsyncing before returning so a completed unit survives a crash. A
// failed write or fsync truncates the file back to where the entry
// began; if that fails too, the journal is closed, since it no longer
// knows what the file holds past its last complete entry.
func (j *Journal) Append(kind, key string, payload any) error {
	f := getFrame()
	defer frames.Put(f)
	if err := f.seal(kind, key, payload); err != nil {
		return err
	}
	line := f.buf.Bytes()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("checkpoint: journal %s is closed", j.path)
	}
	_, err := j.f.WriteAt(line, j.off)
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		if terr := j.f.Truncate(j.off); terr != nil {
			j.f.Close()
			j.f = nil
			return errors.Join(err, fmt.Errorf("checkpoint: journal %s closed: rolling back a failed append: %w", j.path, terr))
		}
		return err
	}
	j.off += int64(len(line))
	return nil
}

// Close releases the journal's file handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
