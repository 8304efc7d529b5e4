package orchestrator

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/placement"
)

// sealedState is o's state as a GET /api/v1/state envelope.
func sealedState(t *testing.T, o *Orchestrator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := checkpoint.Encode(&buf, stateKind, mustState(t, o)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadState is PUT /api/v1/state under a hostile checkpoint: the
// fuzzer mutates a state payload, the payload is re-sealed (so the
// digest is good) and decoded as the handler decodes it, and the state
// is loaded into a fresh orchestrator. Nothing may panic. A state that
// loads must survive SaveState → LoadState into another fresh
// orchestrator and save back to the same envelope, and a Tick and a
// placement batch on it may fail but not panic. The seed is the golden
// state's payload; testdata/fuzz/FuzzLoadState adds doctored states that
// LoadState used to accept.
func FuzzLoadState(f *testing.F) {
	golden, err := os.ReadFile(goldenStatePath)
	if err != nil {
		f.Fatal(err)
	}
	var seed json.RawMessage
	if err := checkpoint.Decode(bytes.NewReader(golden), stateKind, &seed); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(seed))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var sealed bytes.Buffer
		if err := checkpoint.Encode(&sealed, stateKind, json.RawMessage(payload)); err != nil {
			return // not JSON
		}
		var st State
		if err := checkpoint.Decode(&sealed, stateKind, &st); err != nil {
			return
		}
		o := trafficFixture(t, placement.LatencyAware{}, 6)
		if err := o.LoadState(st); err != nil {
			return
		}
		saved := sealedState(t, o)
		var again State
		if err := checkpoint.Decode(bytes.NewReader(saved), stateKind, &again); err != nil {
			t.Fatalf("saved state does not decode: %v", err)
		}
		restored := trafficFixture(t, placement.LatencyAware{}, 6)
		if err := restored.LoadState(again); err != nil {
			t.Fatalf("saved state does not load: %v", err)
		}
		if resaved := sealedState(t, restored); !bytes.Equal(resaved, saved) {
			t.Fatalf("load then save gives\n%s\nwant\n%s", resaved, saved)
		}
		_ = o.Tick(time.Hour)
		_, _, _ = o.PlaceBatch()
	})
}
