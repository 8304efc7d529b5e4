package placement

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/energy"
)

// viewState is everything a view shows a solver, deep-copied: the four
// matrices, the shortlists, the class stamp, and the cold heuristic
// assignment under CarbonAware.
type viewState struct {
	rows              viewRows
	cands             [][]int
	classOf, classRep []int32
	asg               *Assignment
}

func viewOf(t *testing.T, ws *Workspace, apps []App) viewState {
	t.Helper()
	p, err := ws.Problem(apps)
	if err != nil {
		t.Fatal(err)
	}
	v := viewState{
		rows:     copyRows(p),
		classOf:  append([]int32(nil), p.classOf...),
		classRep: append([]int32(nil), p.classRep...),
	}
	for i := range p.Apps {
		v.cands = append(v.cands, append([]int(nil), p.Candidates[i]...))
	}
	if v.asg, err = NewHeuristicSolver().Solve(p, CarbonAware{}); err != nil {
		t.Fatal(err)
	}
	return v
}

// unbound returns a copy of apps with every class hint dropped.
func unbound(apps []App) []App {
	out := append([]App(nil), apps...)
	for i := range out {
		out[i].class = nil
	}
	return out
}

// bindAll binds every app of apps to ws in place.
func bindAll(ws *Workspace, apps []App) {
	for i := range apps {
		ws.Bind(&apps[i])
	}
}

// TestClassHintNeverTrustedWrongly: in every case a view of hinted apps
// must equal the view of the same apps unhinted on a twin workspace with
// the same history — rows, shortlists, class stamp and solved assignment.
// Each case makes a trusted hint point at the wrong class: one from
// another workspace, one whose app changed a key field after it was
// bound, one from before the fleet grew, one from before a memo reset,
// and hinted apps batched with unhinted apps of the same class.
func TestClassHintNeverTrustedWrongly(t *testing.T) {
	// prep receives the twins' shared instance and applies any history to
	// both through do; it returns the hinted batch to view on ws.
	cases := []struct {
		name string
		prep func(t *testing.T, inst wsInstance, ws *Workspace, do func(func(*Workspace))) []App
	}{
		{"other workspace", func(t *testing.T, inst wsInstance, ws *Workspace, do func(func(*Workspace))) []App {
			rev := append([]Server(nil), inst.servers...)
			for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
				rev[a], rev[b] = rev[b], rev[a]
			}
			other, err := NewWorkspace(rev, inst.rtt, nil)
			if err != nil {
				t.Fatal(err)
			}
			apps := append([]App(nil), inst.apps...)
			bindAll(other, apps)
			return apps
		}},
		{"source changed", changed(func(a *App) { a.Source = fmt.Sprintf("c%d", (int(a.Source[1]-'0')+2)%6) })},
		{"model changed", changed(func(a *App) {
			if a.Model == energy.ModelYOLOv4 {
				a.Model = energy.ModelEfficientNetB0
			} else {
				a.Model = energy.ModelYOLOv4
			}
		})},
		{"SLO changed", changed(func(a *App) { a.SLOms += 9 })},
		{"rate changed", changed(func(a *App) { a.RatePerSec *= 3 })},
		{"bound before AddServers", func(t *testing.T, inst wsInstance, ws *Workspace, do func(func(*Workspace))) []App {
			apps := append([]App(nil), inst.apps...)
			bindAll(ws, apps)
			more := randomWSInstance(rand.New(rand.NewSource(5)), 0, 12).servers
			for j := range more {
				more[j].ID = fmt.Sprintf("added-%d", j)
			}
			do(func(w *Workspace) {
				if err := w.AddServers(more...); err != nil {
					t.Fatal(err)
				}
			})
			p, err := ws.Problem(apps)
			if err != nil {
				t.Fatal(err)
			}
			grown := false
			for i := range apps {
				c := p.Candidates[i]
				grown = grown || len(c) > 0 && c[len(c)-1] >= len(inst.servers)
			}
			if !grown {
				t.Fatal("no shortlist reaches an added server: the case is vacuous")
			}
			return apps
		}},
		{"bound before memo reset", func(t *testing.T, inst wsInstance, ws *Workspace, do func(func(*Workspace))) []App {
			apps := append([]App(nil), inst.apps...)
			bindAll(ws, apps)
			flood := make([]App, maxMemoEntries+1)
			for i := range flood {
				flood[i] = App{ID: fmt.Sprintf("f%d", i), Model: energy.ModelResNet50, Source: "c0", SLOms: 20, RatePerSec: 1e-3 * float64(i+1)}
			}
			do(func(w *Workspace) {
				if _, err := w.Problem(flood); err != nil {
					t.Fatal(err)
				}
			})
			if ws.candEra == 0 {
				t.Fatal("the flood reset no memo: the case is vacuous")
			}
			// Batch each stale hint with an unhinted copy of its app: a
			// trusted stale hint would split one class in two.
			return withCopies(apps)
		}},
		{"mixed batch", func(t *testing.T, inst wsInstance, ws *Workspace, do func(func(*Workspace))) []App {
			apps := append([]App(nil), inst.apps...)
			bindAll(ws, apps)
			return withCopies(apps)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := classedWSInstance(rand.New(rand.NewSource(83)), 24, 10)
			ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewWorkspace(inst.servers, inst.rtt, nil)
			if err != nil {
				t.Fatal(err)
			}
			apps := tc.prep(t, inst, ws, func(f func(*Workspace)) { f(ws); f(ref) })
			want := viewOf(t, ref, unbound(apps))
			if got := viewOf(t, ws, apps); !reflect.DeepEqual(got, want) {
				t.Fatalf("hinted view differs from the unhinted one:\nhinted:   %+v\nunhinted: %+v", got, want)
			}
		})
	}
}

// changed returns a case that binds the instance's apps and then edits
// one key field of each.
func changed(edit func(*App)) func(*testing.T, wsInstance, *Workspace, func(func(*Workspace))) []App {
	return func(_ *testing.T, inst wsInstance, ws *Workspace, _ func(func(*Workspace))) []App {
		apps := append([]App(nil), inst.apps...)
		bindAll(ws, apps)
		for i := range apps {
			edit(&apps[i])
		}
		return apps
	}
}

// withCopies interleaves apps with unhinted copies under fresh IDs.
func withCopies(apps []App) []App {
	var out []App
	for i, a := range apps {
		c := a
		c.ID, c.class = fmt.Sprintf("copy-%d", i), nil
		out = append(out, a, c)
	}
	return out
}

// TestBoundViewMakesNoMemoLookup: a view of bound apps reads their
// classes off the hints. The class memo is swapped for an empty one
// before the view, so any lookup would miss and insert a class.
func TestBoundViewMakesNoMemoLookup(t *testing.T) {
	inst := classedWSInstance(rand.New(rand.NewSource(89)), 200, 30)
	ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	bindAll(ws, inst.apps)
	want := viewOf(t, ws, inst.apps)
	ws.cands = map[candKey]*candClass{}
	got := viewOf(t, ws, inst.apps)
	if len(ws.cands) != 0 {
		t.Fatalf("a view of bound apps looked up %d classes", len(ws.cands))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the view read off the hints differs from the looked-up one")
	}
}
