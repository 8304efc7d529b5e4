package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeeds returns real envelopes: testdata/engine.ckpt is the last
// checkpoint of `cesim -exp longhaul -hours 48 -checkpoint-dir DIR`,
// testdata/sweep.journal the first three lines of the journal `cesim -exp
// fig12 -hours 24 -checkpoint-dir DIR` writes (the grid header and two
// points), and the rest are framed here with kinds and keys that need
// escaping.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	ckpt, err := os.ReadFile(filepath.Join("testdata", "engine.ckpt"))
	if err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{ckpt}
	journal, err := os.ReadFile(filepath.Join("testdata", "sweep.journal"))
	if err != nil {
		tb.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(journal, []byte("\n")) {
		if len(line) > 0 {
			seeds = append(seeds, line)
		}
	}
	for _, p := range []struct {
		kind, key string
		payload   any
	}{
		{"engine", "", payload{Name: "point", Value: 0.1 + 0.2, Seq: []int{3, 1, 2}}},
		{"sweep-point", `limit=5/<US>&"x"`, map[string]float64{"z": 1e21, "a": -0.125}},
		{"orchestrator", " bad\xff", hostileStrings},
		{"k", "", nil},
	} {
		f := getFrame()
		if err := f.seal(p.kind, p.key, p.payload); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, append([]byte(nil), f.buf.Bytes()...))
		frames.Put(f)
	}
	return seeds
}

// FuzzDecode feeds arbitrary bytes to the envelope decoder. It must
// never panic, and an input it accepts must carry this build's format
// and version and decode to the payload of one of the seeds: the digest
// covers the payload bytes, so a mutation there is rejected, and nothing
// but a current-format envelope may pass.
func FuzzDecode(f *testing.F) {
	payloads := map[string]bool{}
	for _, seed := range fuzzSeeds(f) {
		var raw json.RawMessage
		if err := Decode(bytes.NewReader(seed), "", &raw); err != nil {
			f.Fatalf("seed rejected: %v", err)
		}
		payloads[string(raw)] = true
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw json.RawMessage
		if err := Decode(bytes.NewReader(data), "", &raw); err != nil {
			return
		}
		if !payloads[string(raw)] {
			t.Fatalf("accepted an envelope whose payload is no seed's: %.200q", raw)
		}
		var env Envelope
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
			t.Fatalf("accepted an envelope that does not parse: %v", err)
		}
		if env.Format != Format || env.Version != Version {
			t.Fatalf("accepted format %q version %d", env.Format, env.Version)
		}
	})
}
