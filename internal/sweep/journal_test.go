package sweep

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// encode renders a result's comparable bytes (wall-clock stripped).
func encode(t *testing.T, r *sim.Result) []byte {
	t.Helper()
	st := r.State()
	st.SolveTimeNs = 0
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestJournalResumeBitIdentical(t *testing.T) {
	w := testWorld(t)
	want, err := testGrid(w, 4).Run()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh journaled run matches the plain run bit for bit.
	full := testGrid(w, 4)
	full.Journal = filepath.Join(t.TempDir(), "full.journal")
	got, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(encode(t, got[i]), encode(t, want[i])) {
			t.Fatalf("journaled point %d diverged from plain run", i)
		}
	}

	// Simulate an interrupted run: a journal holding the grid header and
	// only three completed points (out of order, as a parallel run
	// completes them).
	partialPath := filepath.Join(t.TempDir(), "partial.journal")
	g := testGrid(w, 4)
	j, _, err := checkpoint.OpenJournal(partialPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(kindGrid, "", g.signature()); err != nil {
		t.Fatal(err)
	}
	completed := map[int]bool{5: true, 0: true, 3: true}
	for i := range completed {
		if err := j.Append(kindPoint, g.Points[i].Key, want[i].State()); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Resume: only the incomplete points re-run, each journaling its
	// result once after the three already there, and the stitched grid
	// is bit-identical.
	g.Journal = partialPath
	resumed, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	keys := journalKeys(t, partialPath)
	ran := map[string]int{}
	for _, k := range keys[len(completed):] {
		ran[k]++
	}
	for i := range want {
		if !bytes.Equal(encode(t, resumed[i]), encode(t, want[i])) {
			t.Errorf("resumed point %d (%s) diverged from uninterrupted run", i, g.Points[i].Key)
		}
		if n := ran[g.Points[i].Key]; completed[i] && n != 0 {
			t.Errorf("completed point %d (%s) re-ran on resume", i, g.Points[i].Key)
		} else if !completed[i] && n != 1 {
			t.Errorf("incomplete point %d (%s) ran %d times on resume, want 1", i, g.Points[i].Key, n)
		}
	}

	// A second resume replays everything: no point re-runs.
	g2 := testGrid(w, 4)
	g2.Journal = partialPath
	again, err := g2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(journalKeys(t, partialPath)); n != len(keys) {
		t.Errorf("fully-journaled grid re-ran %d points", n-len(keys))
	}
	for i := range want {
		if !bytes.Equal(encode(t, again[i]), encode(t, want[i])) {
			t.Errorf("replayed point %d diverged", i)
		}
	}
}

// journalKeys lists the point keys a grid journal holds, in the order
// they were appended.
func journalKeys(t *testing.T, path string) []string {
	t.Helper()
	j, entries, err := checkpoint.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range entries {
		if e.Kind == kindPoint {
			keys = append(keys, e.Key)
		}
	}
	return keys
}

func TestJournalRejectsForeignGrid(t *testing.T) {
	w := testWorld(t)
	path := filepath.Join(t.TempDir(), "grid.journal")
	g := testGrid(w, 2)
	g.Journal = path
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}

	// Same keys, different config: the signature must catch it.
	other := testGrid(w, 2)
	other.Journal = path
	other.Points[2].Config.ArrivalsPerHour++
	if _, err := other.Run(); err == nil {
		t.Error("journal accepted a grid with a changed point config")
	}

	// Different shape.
	smaller := testGrid(w, 2)
	smaller.Journal = path
	smaller.Points = smaller.Points[:3]
	if _, err := smaller.Run(); err == nil {
		t.Error("journal accepted a differently-shaped grid")
	}
}

func TestJournalRequiresUniqueKeys(t *testing.T) {
	w := testWorld(t)
	g := testGrid(w, 1)
	g.Points = append(g.Points, g.Points[0])
	g.Journal = filepath.Join(t.TempDir(), "dup.journal")
	if _, err := g.Run(); err == nil {
		t.Error("journaled run accepted duplicate point keys")
	}
}
