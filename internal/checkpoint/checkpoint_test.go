package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type payload struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Seq   []int   `json:"seq"`
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := payload{Name: "point", Value: 0.1 + 0.2, Seq: []int{3, 1, 2}}
	var buf bytes.Buffer
	if err := Encode(&buf, "test-kind", in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Decode(bytes.NewReader(buf.Bytes()), "test-kind", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Value != in.Value || len(out.Seq) != 3 {
		t.Fatalf("round trip diverged: %+v vs %+v", out, in)
	}
}

func TestDecodeRejections(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, "test-kind", payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	var out payload
	if err := Decode(bytes.NewReader(good), "other-kind", &out); err == nil ||
		!strings.Contains(err.Error(), "kind") {
		t.Errorf("mis-routed kind accepted (err=%v)", err)
	}

	mutate := func(t *testing.T, f func(*Envelope)) []byte {
		t.Helper()
		var env Envelope
		if err := json.Unmarshal(good, &env); err != nil {
			t.Fatal(err)
		}
		f(&env)
		b, err := json.Marshal(&env)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	foreign := mutate(t, func(e *Envelope) { e.Format = "someone-elses-file" })
	if err := Decode(bytes.NewReader(foreign), "test-kind", &out); err == nil {
		t.Error("foreign format accepted")
	}
	future := mutate(t, func(e *Envelope) { e.Version = Version + 1 })
	if err := Decode(bytes.NewReader(future), "test-kind", &out); err == nil {
		t.Error("future version accepted")
	}
	corrupt := mutate(t, func(e *Envelope) { e.Payload = json.RawMessage(`{"name":"tampered"}`) })
	if err := Decode(bytes.NewReader(corrupt), "test-kind", &out); err == nil ||
		!strings.Contains(err.Error(), "digest") {
		t.Errorf("tampered payload accepted (err=%v)", err)
	}

	// Only whitespace may follow the envelope.
	for _, tail := range []string{`{"format":"junk"} trailing garbage`, "garbage", "}", "\n" + string(good), "0"} {
		if err := Decode(strings.NewReader(string(good)+tail), "test-kind", &out); err == nil ||
			!strings.Contains(err.Error(), "after the envelope") {
			t.Errorf("envelope followed by %q accepted (err=%v)", tail, err)
		}
	}
	if err := Decode(strings.NewReader(string(good)+" \t\r\n\n"), "test-kind", &out); err != nil {
		t.Errorf("envelope followed by whitespace rejected: %v", err)
	}
}

func TestEncodingDeterministic(t *testing.T) {
	// Equal states must produce identical bytes: the resume-equivalence
	// checks compare encodings, and map ordering must not leak in.
	in := map[string]float64{"z": 1.5, "a": 2.25, "m": -0.125}
	var a, b bytes.Buffer
	if err := Encode(&a, "k", in); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, "k", in); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two encodings of one state differ")
	}
}

// TestSaveLoadAtomic: an envelope Encode wrote and SaveBytes put in
// place over an older one decodes to the newer payload.
func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nested", "state.ckpt")
	for _, name := range []string{"v1", "v2"} {
		var buf bytes.Buffer
		if err := Encode(&buf, "test-kind", payload{Name: name}); err != nil {
			t.Fatal(err)
		}
		if err := SaveBytes(path, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out payload
	if err := Decode(f, "test-kind", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "v2" {
		t.Fatalf("loaded %q, want v2", out.Name)
	}
	// No temp-file litter once SaveBytes returns.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("checkpoint dir holds %d files, want 1", len(ents))
	}
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh journal replayed %d entries", len(entries))
	}
	for i, key := range []string{"a", "b", "c"} {
		if err := j.Append("sweep-point", key, payload{Name: key, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, entries, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("replayed %d entries, want 3", len(entries))
	}
	for i, key := range []string{"a", "b", "c"} {
		if entries[i].Key != key || entries[i].Kind != "sweep-point" {
			t.Errorf("entry %d = (%s, %s), want (sweep-point, %s)", i, entries[i].Kind, entries[i].Key, key)
		}
		raw, err := entries[i].Open("sweep-point")
		if err != nil {
			t.Fatal(err)
		}
		var p payload
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		if p.Value != float64(i) {
			t.Errorf("entry %s value %v, want %d", key, p.Value, i)
		}
	}
}

func TestJournalTornTailDroppedAndTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("sweep-point", "done", payload{Name: "done"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate a crash mid-append: half an envelope, no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"format":"carbonedge-checkpoint","version":1,"kind":"swee`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(entries) != 1 || entries[0].Key != "done" {
		t.Fatalf("replayed %d entries, want the 1 intact one", len(entries))
	}
	// The tail was truncated: a new append lands on a clean line.
	if err := j2.Append("sweep-point", "next", payload{Name: "next"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, entries, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Key != "next" {
		t.Fatalf("after torn-tail recovery replayed %v, want [done next]", len(entries))
	}
}

func TestJournalMidFileCorruptionIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("sweep-point", "a", payload{}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the first line, then append a valid-looking second line.
	raw = bytes.Replace(raw, []byte(`"sha256"`), []byte(`"sha-bad"`), 1)
	raw = append(raw, raw...)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); err == nil {
		t.Error("mid-file corruption not reported")
	}
}

func TestJournalConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := j.Append("sweep-point", string(rune('a'+i)), payload{Value: float64(i)}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	j.Close()
	_, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 16 {
		t.Fatalf("replayed %d entries, want 16", len(entries))
	}
}

func TestJournalTerminatedCorruptFinalLineIsError(t *testing.T) {
	// A newline-terminated final line that fails validation is bit-rot of
	// durable data (Append writes the newline last), never a torn append:
	// it must be reported, not silently truncated.
	path := filepath.Join(t.TempDir(), "run.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("sweep-point", "a", payload{}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rotted := bytes.Replace(raw, []byte(`"sha256":"`), []byte(`"sha256":"00`), 1)
	if err := os.WriteFile(path, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); err == nil {
		t.Error("newline-terminated corrupt final entry silently dropped")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	// A sealed envelope opens under its own kind only, and only while its
	// payload matches its digest.
	type member struct{ V int }
	env, err := seal("engine", "point-1", member{V: 7})
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != "engine" || env.Key != "point-1" {
		t.Errorf("sealed kind/key = %q/%q", env.Kind, env.Key)
	}
	raw, err := env.Open("engine")
	if err != nil {
		t.Fatal(err)
	}
	var got member
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.V != 7 {
		t.Errorf("payload round trip = %+v", got)
	}
	// Mis-routed kind and corrupted payload are both rejected.
	if _, err := env.Open("orchestrator"); err == nil {
		t.Error("opened under the wrong kind")
	}
	env.Payload = json.RawMessage(`{"V":8}`)
	if _, err := env.Open("engine"); err == nil {
		t.Error("opened a tampered payload")
	}
}

// seal wraps a payload in an envelope as Encode and Journal.Append frame
// it: the payload JSON-encoded, digested, and framed under the given kind
// (and optional key). Encoding the returned Envelope yields the bytes
// Encode writes (see the package comment).
func seal(kind, key string, payload any) (*Envelope, error) {
	f := getFrame()
	defer frames.Put(f)
	if err := f.encode(payload); err != nil {
		return nil, fmt.Errorf("checkpoint: encoding %s payload: %w", kind, err)
	}
	raw := bytes.Clone(f.buf.Bytes())
	sum := sha256.Sum256(raw)
	return &Envelope{
		Format:  Format,
		Version: Version,
		Kind:    kind,
		Key:     key,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: raw,
	}, nil
}
