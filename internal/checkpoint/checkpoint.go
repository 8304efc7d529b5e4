// Package checkpoint is the versioned, self-describing codec the
// simulator, sweep runner, and orchestrator persist their state through.
// Every artifact is a JSON envelope carrying the format name, a format
// version, a kind tag, and a SHA-256 digest of the payload, so a reader
// can reject foreign files, versions it does not understand, mis-routed
// kinds, and corrupted payloads before decoding a byte of state. A
// payload is encoded as encoding/json encodes it: Go's float and integer
// renderings round-trip exactly and maps encode with sorted keys (an
// engine result's placement counts are metrics.Counts, lists kept sorted
// by label that encode as those maps would), so two equal states produce
// identical bytes — the property the resume-equivalence tests compare.
// A payload with an AppendJSON method (*sim.Snapshot, the engine
// checkpoint) writes those bytes itself, without reflection; every other
// payload goes through a json.Encoder.
// An engine's snapshots share a row cache: a server row, live-app entry,
// monthly result figure or placement count entry is copied from it only
// when it equals, bit for bit, the value the cached bytes were rendered
// from, so a decoded or hand-built snapshot, which carries no cache,
// encodes to the same bytes.
// encoding/json is the only decoder, and a reader accepts nothing but
// whitespace after the envelope.
//
// The write path encodes the payload once and frames the envelope
// around those bytes: a fixed prefix (format, version, kind, optional
// key, a digest slot), the payload verbatim, then "}" and a newline —
// one buffer, one Write. This is byte-identical to json-encoding an
// Envelope of the same kind, key and payload: encoding/json emits the struct's fields in
// declaration order, encodes Kind and Key with the same encoder (HTML
// escaping on, invalid UTF-8 replaced), and re-compacts a RawMessage
// payload, which is the identity on bytes encoding/json produces — they
// are already compact and already escaped, and AppendJSON is held to
// the same bytes. So the envelope is never re-scanned; only a payload
// this package has itself just encoded takes the verbatim path.
//
// Files are written atomically (temp file + fsync + rename + fsync of
// the directory), so a crash mid-checkpoint leaves the previous
// checkpoint intact rather than a truncated one. The append-only Journal
// (see journal.go) complements full snapshots for incremental workloads:
// completed work units are appended one envelope per line, and a restart
// replays the journal to skip what is already done.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

const (
	// Format identifies checkpoint artifacts written by this repository.
	Format = "carbonedge-checkpoint"
	// Version is the envelope format version. Readers reject envelopes
	// with a newer version (state written by a future build) rather than
	// guessing at their layout, and versions below 1, which no build has
	// written.
	Version = 1
)

// Envelope is the self-describing frame around every serialized payload.
type Envelope struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Kind routes the payload to its decoder ("engine", "orchestrator",
	// "sweep-grid", "sweep-point", ...).
	Kind string `json:"kind"`
	// Key optionally identifies the payload within a journal (a sweep
	// point's grid key).
	Key string `json:"key,omitempty"`
	// SHA256 is the hex digest of Payload, verified before decoding.
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// Open validates the envelope (format, version, payload digest) and
// returns the payload bytes. A non-empty kind additionally requires the
// envelope to carry that kind; journal readers pass "" and dispatch on
// Kind themselves.
func (e *Envelope) Open(kind string) (json.RawMessage, error) {
	if e.Format != Format {
		return nil, fmt.Errorf("checkpoint: not a %s artifact (format %q)", Format, e.Format)
	}
	if e.Version > Version {
		return nil, fmt.Errorf("checkpoint: version %d is newer than this build understands (%d)", e.Version, Version)
	}
	if e.Version < 1 {
		return nil, fmt.Errorf("checkpoint: version %d is not a valid envelope version", e.Version)
	}
	if kind != "" && e.Kind != kind {
		return nil, fmt.Errorf("checkpoint: kind %q, want %q", e.Kind, kind)
	}
	sum := sha256.Sum256(e.Payload)
	if got := hex.EncodeToString(sum[:]); got != e.SHA256 {
		return nil, fmt.Errorf("checkpoint: %s payload digest mismatch (corrupted artifact)", e.Kind)
	}
	return e.Payload, nil
}

// envelopeHead is every envelope's constant prefix, up to the kind's
// value.
var envelopeHead = `{"format":"` + Format + `","version":` + strconv.Itoa(Version) + `,"kind":`

// digestSlot reserves the hex digest's place in the prefix; frame.seal
// fills it in once the payload is encoded.
var digestSlot [2 * sha256.Size]byte

// frame is a reusable envelope buffer with an encoder writing into it.
type frame struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var frames = sync.Pool{New: func() any {
	f := new(frame)
	f.enc = json.NewEncoder(&f.buf)
	return f
}}

func getFrame() *frame {
	f := frames.Get().(*frame)
	f.buf.Reset()
	return f
}

// appender is a payload that encodes itself without reflection:
// AppendJSON appends exactly the bytes json.Marshal would produce, or
// returns json.Marshal's error (*sim.Snapshot is one).
type appender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// encode appends v's JSON encoding: through v's AppendJSON when it has
// one, straight into the buffer's spare capacity, and otherwise through
// the pooled encoder without its trailing newline. Both escape HTML as
// json.Marshal does, and write nothing when v fails to encode.
func (f *frame) encode(v any) error {
	if a, ok := v.(appender); ok {
		b, err := a.AppendJSON(f.buf.AvailableBuffer())
		if err != nil {
			return err
		}
		f.buf.Write(b)
		return nil
	}
	if err := f.enc.Encode(v); err != nil {
		return err
	}
	f.buf.Truncate(f.buf.Len() - 1)
	return nil
}

// seal fills the buffer with one envelope line: the prefix with a
// reserved digest slot, the payload encoded once, the payload's digest
// written into the slot, then the closing brace and a newline. The bytes
// equal json.NewEncoder(w).Encode of the Envelope of kind, key and
// payload (see the package comment).
func (f *frame) seal(kind, key string, payload any) error {
	b := &f.buf
	b.WriteString(envelopeHead)
	_ = f.encode(kind) // a string always encodes
	if key != "" {
		b.WriteString(`,"key":`)
		_ = f.encode(key)
	}
	b.WriteString(`,"sha256":"`)
	slot := b.Len()
	b.Write(digestSlot[:])
	b.WriteString(`","payload":`)
	at := b.Len()
	if err := f.encode(payload); err != nil {
		return fmt.Errorf("checkpoint: encoding %s payload: %w", kind, err)
	}
	sum := sha256.Sum256(b.Bytes()[at:])
	hex.Encode(b.Bytes()[slot:slot+len(digestSlot)], sum[:])
	b.WriteString("}\n")
	return nil
}

// Encode writes one enveloped payload to w, newline-terminated. The
// envelope is assembled in full before a single w.Write, so a payload
// that fails to encode leaves w untouched.
func Encode(w io.Writer, kind string, payload any) error {
	f := getFrame()
	defer frames.Put(f)
	if err := f.seal(kind, "", payload); err != nil {
		return err
	}
	_, err := w.Write(f.buf.Bytes())
	return err
}

// Decode reads one enveloped payload from r, validates the envelope
// against kind, and unmarshals the payload into out. The envelope must
// be all r holds: only whitespace may follow it.
func Decode(r io.Reader, kind string, out any) error {
	var env Envelope
	dec := json.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return fmt.Errorf("checkpoint: reading envelope: %w", err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("unexpected %v", tok)
		}
		return fmt.Errorf("checkpoint: data after the envelope: %w", err)
	}
	raw, err := env.Open(kind)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("checkpoint: decoding %s payload: %w", kind, err)
	}
	return nil
}

// SaveBytes atomically writes an already-encoded envelope (the output of
// Encode) to path. The bytes are staged to a temp file in the same
// directory, fsynced, and renamed into place, and the directory is
// fsynced so the rename itself survives a crash: a crash mid-write never
// leaves a truncated checkpoint where a good one stood, nor loses one
// that SaveBytes reported written.
func SaveBytes(path string, encoded []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(encoded); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the entries renamed into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
