package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// encodeOracle is the reflection path every envelope writer is held to:
// json.Marshal the payload, digest it, and hand the whole Envelope to a
// json.Encoder, which re-validates and re-compacts the RawMessage
// payload. Encode, Seal and Journal.Append must produce its bytes
// (and its error) exactly.
func encodeOracle(w io.Writer, kind, key string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding %s payload: %w", kind, err)
	}
	sum := sha256.Sum256(raw)
	return json.NewEncoder(w).Encode(&Envelope{
		Format: Format, Version: Version, Kind: kind, Key: key,
		SHA256: hex.EncodeToString(sum[:]), Payload: raw,
	})
}

// sealed is frame.seal's output as a fresh slice.
func sealed(t *testing.T, kind, key string, payload any) ([]byte, error) {
	t.Helper()
	f := getFrame()
	defer frames.Put(f)
	if err := f.seal(kind, key, payload); err != nil {
		return nil, err
	}
	return append([]byte(nil), f.buf.Bytes()...), nil
}

// spacedMarshaler returns valid but uncompacted JSON with raw HTML
// characters, which encoding/json compacts and escapes.
type spacedMarshaler struct{}

func (spacedMarshaler) MarshalJSON() ([]byte, error) {
	return []byte("{ \"tag\" : \"<b>&</b>\" ,\n \"n\" : [ 1 , 2 ] }"), nil
}

type failingMarshaler struct{}

func (failingMarshaler) MarshalJSON() ([]byte, error) { return nil, errors.New("refused") }

// hostileStrings are the kind, key and string-payload values whose JSON
// encoding is not the identity: HTML characters, quote and backslash,
// control bytes, the JavaScript line separators and invalid UTF-8.
var hostileStrings = []string{
	"", "engine", `<>&"\`, "\u2028\u2029", "bad\xffutf8\xfe", "\x00\x1f\t\n\r\b\f", "日本 ✓", "\x7f",
}

func oraclePayloads() map[string]any {
	type point struct {
		Name  string             `json:"name"`
		Value float64            `json:"value"`
		Seq   []int              `json:"seq"`
		Tags  map[string]float64 `json:"tags,omitempty"`
		Blob  []byte             `json:"blob,omitempty"`
		Inner *Envelope          `json:"inner,omitempty"`
	}
	member, err := seal("engine", "shard-<1>", point{Name: "member ", Value: 1e21})
	if err != nil {
		panic(err)
	}
	big := make([]point, 2000)
	for i := range big {
		big[i] = point{Name: hostileStrings[i%len(hostileStrings)], Value: float64(i) / 7, Seq: []int{i, -i}}
	}
	return map[string]any{
		"struct":    point{Name: "point", Value: 0.1 + 0.2, Seq: []int{3, 1, 2}},
		"floats":    map[string]float64{"z": 1e21, "a": 1e-7, "m": math.Copysign(0, -1), "q": math.MaxFloat64, "s": 5e-324},
		"strings":   hostileStrings,
		"keys":      map[string]int{"<k>": 1, "a&b": 2, " ": 3, "bad\xff": 4},
		"raw":       json.RawMessage("{ \"spaced\" : [1, 2 ,3] , \"html\" : \"<>&\" }"),
		"marshaler": spacedMarshaler{},
		"nil":       nil,
		"bytes":     []byte("<binary>\x00\xff"),
		"composite": point{Name: "outer", Inner: member},
		"big":       big,
		"appender":  &appending{V: 1e-7, S: "<appender>", calls: new(int)},
	}
}

// TestEncodeMatchesSealOracle pins the framing to the old write path,
// byte for byte, across payloads whose encoding is not the identity and
// kinds and keys that need escaping.
func TestEncodeMatchesSealOracle(t *testing.T) {
	for name, v := range oraclePayloads() {
		for _, kind := range hostileStrings {
			for _, key := range hostileStrings {
				var want bytes.Buffer
				if err := encodeOracle(&want, kind, key, v); err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				got, err := sealed(t, kind, key, v)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("%s kind %q key %q: framed envelope differs from the oracle\ngot:  %.300s\nwant: %.300s", name, kind, key, got, want.Bytes())
				}
				if key != "" {
					continue
				}
				var enc bytes.Buffer
				if err := Encode(&enc, kind, v); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(enc.Bytes(), want.Bytes()) {
					t.Fatalf("%s kind %q: Encode differs from the oracle", name, kind)
				}
			}
		}
	}
}

// TestEncodeReusesFrameAcrossSizes runs one pooled frame through a large
// envelope and then a small one: nothing of the first may leak into the
// second.
func TestEncodeReusesFrameAcrossSizes(t *testing.T) {
	payloads := oraclePayloads()
	for _, name := range []string{"big", "struct", "big", "nil"} {
		var want, got bytes.Buffer
		if err := encodeOracle(&want, "k", "", payloads[name]); err != nil {
			t.Fatal(err)
		}
		if err := Encode(&got, "k", payloads[name]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: Encode after a reused frame differs from the oracle", name)
		}
	}
}

// TestEncodeMarshalErrorMatchesOracle: a payload encoding/json refuses
// fails with the old error text, and leaves the writer and the journal
// untouched.
func TestEncodeMarshalErrorMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(filepath.Join(dir, "run.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for name, v := range map[string]any{
		"channel":    make(chan int),
		"NaN":        math.NaN(),
		"inf in map": map[string]float64{"x": math.Inf(1)},
		"marshaler":  []any{1, failingMarshaler{}},
		"func field": struct{ F func() }{F: func() {}},
		"appender":   &appending{V: math.Inf(-1), calls: new(int)},
	} {
		want := encodeOracle(io.Discard, "engine", "", v)
		if want == nil {
			t.Fatalf("%s: oracle accepted the payload", name)
		}
		var w bytes.Buffer
		got := Encode(&w, "engine", v)
		if got == nil || got.Error() != want.Error() {
			t.Errorf("%s: Encode error %v, want %v", name, got, want)
		}
		if w.Len() != 0 {
			t.Errorf("%s: Encode wrote %d bytes of a failed envelope", name, w.Len())
		}
		if err := j.Append("engine", "", v); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: Append error %v, want %v", name, err, want)
		}
	}
	if raw, err := os.ReadFile(j.path); err != nil || len(raw) != 0 {
		t.Errorf("journal holds %d bytes after failed appends (err %v)", len(raw), err)
	}
}

// appending is a payload that encodes itself through AppendJSON the way
// its contract asks (json.Marshal's bytes, or its error), counting calls.
type appending struct {
	V     float64 `json:"v"`
	S     string  `json:"s"`
	calls *int
}

func (p *appending) AppendJSON(dst []byte) ([]byte, error) {
	*p.calls++
	b, err := json.Marshal(p)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// TestSealMatchesMarshal: Seal's payload is json.Marshal's bytes, and a
// payload with AppendJSON is encoded through it, once per envelope, by
// Seal, Encode and Journal.Append alike.
func TestSealMatchesMarshal(t *testing.T) {
	for name, v := range oraclePayloads() {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		env, err := seal("k", "", v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(env.Payload, want) {
			t.Errorf("%s: Seal payload %.200s, want %.200s", name, env.Payload, want)
		}
	}
	dir := t.TempDir()
	j, _, err := OpenJournal(filepath.Join(dir, "run.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	calls := 0
	p := &appending{V: 0.1, calls: &calls}
	_, serr := seal("k", "", p)
	eerr := Encode(io.Discard, "k", p)
	aerr := j.Append("k", "", p)
	if serr != nil || eerr != nil || aerr != nil || calls != 3 {
		t.Errorf("AppendJSON called %d times for three envelopes (errors %v %v %v)", calls, serr, eerr, aerr)
	}
}

// TestJournalLinesMatchOracle: every journal line is the oracle's
// envelope with its key, newline-terminated, one after another.
func TestJournalLinesMatchOracle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	payloads := oraclePayloads()
	for _, name := range []string{"struct", "strings", "keys", "raw", "composite", "nil"} {
		for _, key := range hostileStrings {
			if err := j.Append("sweep-point", key, payloads[name]); err != nil {
				t.Fatal(err)
			}
			if err := encodeOracle(&want, "sweep-point", key, payloads[name]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("journal lines differ from the oracle's envelopes")
	}
	_, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := 6 * len(hostileStrings); len(entries) != n {
		t.Fatalf("replayed %d entries, want %d", len(entries), n)
	}
}

// TestOpenRejectsVersionBelowOne: no build writes version 0 or below,
// and a missing version field decodes as 0.
func TestOpenRejectsVersionBelowOne(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, "test-kind", payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	for name, doctored := range map[string]string{
		"version 0":       strings.Replace(good, `"version":1`, `"version":0`, 1),
		"version -1":      strings.Replace(good, `"version":1`, `"version":-1`, 1),
		"version missing": strings.Replace(good, `"version":1,`, ``, 1),
	} {
		if doctored == good {
			t.Fatalf("%s: doctoring changed nothing", name)
		}
		var out payload
		if err := Decode(strings.NewReader(doctored), "test-kind", &out); err == nil ||
			!strings.Contains(err.Error(), "version") {
			t.Errorf("%s accepted (err=%v)", name, err)
		}
	}
}

// faultyFile is a journalFile that fails on demand: a short write (half
// the bytes land, then an error), a failed fsync after a full write, or
// a failed truncate.
type faultyFile struct {
	*os.File
	shortWrite, failSync, failTruncate bool
}

func (f *faultyFile) WriteAt(b []byte, off int64) (int, error) {
	if f.shortWrite {
		n, _ := f.File.WriteAt(b[:len(b)/2], off)
		return n, errors.New("injected short write")
	}
	return f.File.WriteAt(b, off)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errors.New("injected truncate failure")
	}
	return f.File.Truncate(size)
}

// TestJournalFailedAppendRollsBack: a write or fsync that fails part-way
// must leave the file exactly as the last complete entry left it, so the
// next append starts a clean line and the journal stays replayable: a
// partial line completed by a later append is a newline-terminated
// corrupt entry, which OpenJournal refuses.
func TestJournalFailedAppendRollsBack(t *testing.T) {
	for name, fault := range map[string]faultyFile{
		"short write": {shortWrite: true},
		"failed sync": {failSync: true},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.journal")
			j, _, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append("sweep-point", "a", payload{Name: "a"}); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ff := fault
			ff.File = j.f.(*os.File)
			j.f = &ff
			if err := j.Append("sweep-point", "lost", payload{Name: "lost"}); err == nil {
				t.Fatal("injected failure not reported")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, before) {
				t.Fatalf("failed append left %d bytes behind", len(after)-len(before))
			}
			ff.shortWrite, ff.failSync = false, false
			if err := j.Append("sweep-point", "b", payload{Name: "b"}); err != nil {
				t.Fatal(err)
			}
			j.Close()
			_, entries, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("journal unreadable after a failed append: %v", err)
			}
			if len(entries) != 2 || entries[0].Key != "a" || entries[1].Key != "b" {
				t.Fatalf("replayed %d entries, want [a b]", len(entries))
			}
		})
	}
}

// TestJournalClosedWhenRollbackFails: if the truncate back fails too,
// the journal closes rather than append after a partial line; the torn
// tail left on disk is what OpenJournal already drops.
func TestJournalClosedWhenRollbackFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("sweep-point", "a", payload{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	ff := &faultyFile{File: j.f.(*os.File), shortWrite: true, failTruncate: true}
	j.f = ff
	err = j.Append("sweep-point", "torn", payload{Name: "torn"})
	if err == nil || !strings.Contains(err.Error(), "closed") || !strings.Contains(err.Error(), "short write") {
		t.Fatalf("unrecoverable append reported %v", err)
	}
	// Even with the file healthy again, the journal stays closed.
	ff.shortWrite, ff.failTruncate = false, false
	if err := j.Append("sweep-point", "b", payload{Name: "b"}); err == nil || !strings.Contains(err.Error(), "is closed") {
		t.Fatalf("append on a journal that could not roll back: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(entries) != 1 || entries[0].Key != "a" {
		t.Fatalf("replayed %d entries, want [a]", len(entries))
	}
}
