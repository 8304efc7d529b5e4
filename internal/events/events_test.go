package events

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// drain pops every event due at or before now and returns their kinds in
// dispatch order.
func drain(t *testing.T, tl *Timeline, now time.Time) []string {
	t.Helper()
	var kinds []string
	for ev, ok := tl.PopDue(now); ok; ev, ok = tl.PopDue(now) {
		kinds = append(kinds, ev.Kind)
		if ev.At.After(now) {
			t.Fatalf("popped event %q due %v after now %v", ev.Kind, ev.At, now)
		}
		if err := ev.Apply(now); err != nil {
			t.Fatal(err)
		}
	}
	return kinds
}

func TestTimelineOrdering(t *testing.T) {
	// Events dispatch in (At, Seq) order: time first, schedule order
	// within an instant — regardless of schedule interleaving.
	tl := NewTimeline()
	nop := func(time.Time) error { return nil }
	tl.Schedule(t0.Add(2*time.Hour), "c", nop)
	tl.Schedule(t0.Add(1*time.Hour), "a1", nop)
	tl.Schedule(t0.Add(1*time.Hour), "a2", nop)
	tl.Schedule(t0, "z", nop)
	tl.Schedule(t0.Add(1*time.Hour), "a3", nop)

	got := drain(t, tl, t0.Add(3*time.Hour))
	want := []string{"z", "a1", "a2", "a3", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order %v, want %v", got, want)
	}
	if len(tl.h) != 0 {
		t.Errorf("timeline not drained: %d left", len(tl.h))
	}
}

func TestTimelinePopDueBoundary(t *testing.T) {
	tl := NewTimeline()
	nop := func(time.Time) error { return nil }
	tl.Schedule(t0.Add(time.Hour), "later", nop)

	if _, ok := tl.PopDue(t0); ok {
		t.Error("popped an event before its due time")
	}
	if at, ok := nextAt(tl); !ok || !at.Equal(t0.Add(time.Hour)) {
		t.Errorf("NextAt = %v/%v, want %v/true", at, ok, t0.Add(time.Hour))
	}
	// Due exactly at its instant.
	if ev, ok := tl.PopDue(t0.Add(time.Hour)); !ok || ev.Kind != "later" {
		t.Errorf("event not due at its own instant: %v/%v", ev, ok)
	}
	if _, ok := nextAt(tl); ok {
		t.Error("NextAt on empty timeline reported an event")
	}
}

func TestTimelineDeterministicReplay(t *testing.T) {
	// Two identically-scheduled timelines (including events scheduled
	// from within Apply, the engine's recurring-phase pattern) dispatch
	// identical sequences.
	run := func() []string {
		tl := NewTimeline()
		var order []string
		var tick func(at time.Time) error
		tick = func(at time.Time) error {
			order = append(order, fmt.Sprintf("tick@%s", at.Sub(t0)))
			if at.Sub(t0) < 3*time.Hour {
				tl.Schedule(at.Add(time.Hour), "tick", tick)
			}
			return nil
		}
		tl.Schedule(t0, "tick", tick)
		tl.Schedule(t0.Add(2*time.Hour), "fault", func(at time.Time) error {
			order = append(order, "fault")
			return nil
		})
		for h := 0; h <= 4; h++ {
			now := t0.Add(time.Duration(h) * time.Hour)
			for ev, ok := tl.PopDue(now); ok; ev, ok = tl.PopDue(now) {
				if err := ev.Apply(now); err != nil {
					return nil
				}
			}
		}
		return order
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replays diverged:\n%v\n%v", a, b)
	}
	// The fault (scheduled second at its instant, but earlier than the
	// hour-2 tick's schedule call) fires before that tick.
	want := []string{"tick@0s", "tick@1h0m0s", "fault", "tick@2h0m0s", "tick@3h0m0s"}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("dispatch %v, want %v", a, want)
	}
}

func TestTimelineStepPrimitives(t *testing.T) {
	// The pending heap and ProcessNext are the step primitives: ProcessNext
	// pops-and-applies in the same stable (At, Seq) order PopDue
	// dispatches.
	tl := NewTimeline()
	var order []string
	mark := func(kind string) Apply {
		return func(time.Time) error {
			order = append(order, kind)
			return nil
		}
	}
	tl.Schedule(t0.Add(time.Hour), "b1", mark("b1"))
	tl.Schedule(t0, "a1", mark("a1"))
	tl.Schedule(t0, "a2", mark("a2"))
	tl.Schedule(t0.Add(time.Hour), "b2", mark("b2"))

	if len(tl.h) != 4 {
		t.Fatalf("Len = %d with 4 scheduled events", len(tl.h))
	}
	if at, ok := nextAt(tl); !ok || !at.Equal(t0) {
		t.Fatalf("NextAt = %v/%v, want %v/true", at, ok, t0)
	}

	// Nothing due before the earliest instant: ok=false, no error, and
	// the timeline is untouched.
	if ev, ok, err := tl.ProcessNext(t0.Add(-time.Minute)); ok || err != nil {
		t.Fatalf("ProcessNext before due time = %v/%v/%v", ev, ok, err)
	}
	if len(tl.h) != 4 {
		t.Fatalf("ProcessNext consumed an undue event: %d left", len(tl.h))
	}

	var kinds []string
	for {
		ev, ok, err := tl.ProcessNext(t0.Add(2 * time.Hour))
		if !ok {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []string{"a1", "a2", "b1", "b2"}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("ProcessNext order %v, want %v", kinds, want)
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("Apply order %v, want %v", order, want)
	}

	// Empty-timeline behavior.
	if len(tl.h) != 0 {
		t.Errorf("Len = %d on a drained timeline", len(tl.h))
	}
	if _, ok := nextAt(tl); ok {
		t.Error("NextAt on empty timeline reported an event")
	}
	if ev, ok, err := tl.ProcessNext(t0.Add(100 * time.Hour)); ok || err != nil {
		t.Errorf("ProcessNext on empty timeline = %v/%v/%v", ev, ok, err)
	}
}

func TestTimelineProcessNextError(t *testing.T) {
	// An Apply error surfaces alongside the popped event (so callers can
	// attribute it to the kind), and the event is consumed.
	tl := NewTimeline()
	boom := fmt.Errorf("boom")
	tl.Schedule(t0, "explode", func(time.Time) error { return boom })
	ev, ok, err := tl.ProcessNext(t0)
	if !ok || ev.Kind != "explode" || err != boom {
		t.Fatalf("ProcessNext = %v/%v/%v, want explode/true/boom", ev, ok, err)
	}
	if len(tl.h) != 0 {
		t.Error("failed event left on the timeline")
	}
}

// TestFaultQueueOrder: faults pop in (due instant, insertion order) with
// their pop ordinal, nothing pops before it is due, and Pending lists the
// rest in pop order.
func TestFaultQueueOrder(t *testing.T) {
	var q FaultQueue
	mk := func(site string) Fault { return Fault{Kind: FaultCrash, Site: site} }
	q.Push(t0.Add(2*time.Hour), mk("c"))
	q.Push(t0.Add(time.Hour), mk("a1"))
	q.Push(t0.Add(time.Hour), mk("a2"))
	q.Push(t0, mk("z"))
	q.Push(t0.Add(time.Hour), mk("a3"))
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	if _, _, ok := q.PopDue(t0.Add(-time.Minute)); ok {
		t.Fatal("popped a fault before it was due")
	}
	var got []string
	var seqs []int
	for sf, seq, ok := q.PopDue(t0.Add(time.Hour)); ok; sf, seq, ok = q.PopDue(t0.Add(time.Hour)) {
		got = append(got, sf.Fault.Site)
		seqs = append(seqs, seq)
	}
	if want := []string{"z", "a1", "a2", "a3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("pop order %v, want %v", got, want)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(seqs, want) {
		t.Errorf("pop ordinals %v, want %v", seqs, want)
	}
	q.Push(t0.Add(2*time.Hour), mk("d"))
	rest := q.Pending()
	if len(rest) != 2 || rest[0].Fault.Site != "c" || rest[1].Fault.Site != "d" || !rest[1].At.Equal(t0.Add(2*time.Hour)) {
		t.Fatalf("Pending = %+v, want c then d at +2h", rest)
	}
	if _, seq, ok := q.PopDue(t0.Add(2 * time.Hour)); !ok || seq != 4 {
		t.Errorf("next pop ordinal %d/%v, want 4/true", seq, ok)
	}
}

func TestParseFaultScriptRoundTrip(t *testing.T) {
	text := `
# take Miami down for a day, spike the forecast, then scale out
at 72h crash site=Miami for=24h
at 120h forecast-error zone=US-FLA factor=3 for=12h
at 200h degrade site="New York" device=A2 factor=0.5
at 240h scale-out site=Miami device=A2 capacity=4000 count=2
at 300h recover zone=US-CAL
at 320h crash site="Pier #39" # a quoted hash is data, this one a comment
`
	s, err := ParseFaultScript(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Faults) != 6 {
		t.Fatalf("parsed %d faults, want 6", len(s.Faults))
	}
	if f := s.Faults[2]; f.Site != "New York" || f.Device != "A2" || f.Factor != 0.5 {
		t.Errorf("quoted-site fault parsed wrong: %+v", f)
	}
	if f := s.Faults[5]; f.Site != "Pier #39" {
		t.Errorf("quoted '#' treated as a comment: %+v", f)
	}
	// Rendering re-parses to the identical script.
	again, err := ParseFaultScript(render(s))
	if err != nil {
		t.Fatalf("re-parsing rendered script: %v", err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Errorf("round trip diverged:\n%+v\n%+v", s, again)
	}
}

func TestParseFaultScriptErrors(t *testing.T) {
	for _, bad := range []string{
		"crash site=Miami",                         // missing "at <offset>"
		"at 1h crash",                              // no target
		"at 1h explode site=Miami",                 // unknown kind
		"at 1h crash site=Miami oops",              // non key=value argument
		"at 1h degrade site=Miami",                 // degrade without factor
		"at 1h degrade site=Miami factor=0",        // non-positive factor
		"at 1h degrade site=Miami factor=3",        // factor above 1
		"at 1h forecast-error factor=2",            // forecast-error without zone
		"at 1h scale-out site=Miami",               // scale-out without capacity
		"at -1h crash site=Miami",                  // negative offset
		`at 1h crash site="Miami`,                  // unterminated quote
		"at 1h crash site=Miami for=-2h",           // negative duration
		"at 1h recover site=Miami for=2h",          // for= on a kind with no revert
		"at 1h scale-out site=A capacity=1 for=2h", // same, scale-out
	} {
		if _, err := ParseFaultScript(bad); err == nil {
			t.Errorf("accepted invalid script %q", bad)
		}
	}
}

func TestFaultScriptExpandReverts(t *testing.T) {
	s := &FaultScript{Faults: []Fault{
		{At: 10 * time.Hour, Kind: FaultCrash, Site: "Miami", For: 24 * time.Hour},
		{At: 12 * time.Hour, Kind: FaultDegrade, Zone: "US-FLA", Factor: 0.5, For: 6 * time.Hour},
		{At: 14 * time.Hour, Kind: FaultForecastError, Zone: "US-FLA", Factor: 2, For: 2 * time.Hour},
		{At: 20 * time.Hour, Kind: FaultScaleOut, Site: "Miami", CapacityMilli: 1000},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ex := s.Expand()
	if len(ex) != 7 {
		t.Fatalf("expanded to %d faults, want 7 (4 + 3 reverts)", len(ex))
	}
	byAt := map[time.Duration]Fault{}
	for _, f := range ex {
		byAt[f.At] = f
	}
	if f := byAt[34*time.Hour]; f.Kind != FaultRecover || f.Site != "Miami" {
		t.Errorf("crash revert = %+v, want recover site=Miami at 34h", f)
	}
	if f := byAt[18*time.Hour]; f.Kind != FaultDegrade || f.Factor != 1 {
		t.Errorf("degrade revert = %+v, want degrade factor=1 at 18h", f)
	}
	if f := byAt[16*time.Hour]; f.Kind != FaultForecastError || f.Factor != 1 {
		t.Errorf("forecast revert = %+v, want forecast-error factor=1 at 16h", f)
	}
	for i := 1; i < len(ex); i++ {
		if ex[i].At < ex[i-1].At {
			t.Fatalf("expanded list not sorted by offset: %v", ex)
		}
	}
}

// TestFaultRejectsNonFiniteAndMalformedNumbers: a NaN or infinite factor
// or capacity fails no "<= 0" test and cannot be checkpointed, a number
// with trailing junk used to parse as its numeric prefix, and a scale-out
// count past MaxScaleOutCount stalls the next step. Both the script
// parser and Validate on a programmatic fault must refuse them.
func TestFaultRejectsNonFiniteAndMalformedNumbers(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		script string
		fault  *Fault // the same fault built in code, when expressible
	}{
		{`at 2h degrade site="New York" factor=NaN`, &Fault{At: 2 * time.Hour, Kind: FaultDegrade, Site: "New York", Factor: nan}},
		{`at 2h degrade site="New York" factor=+Inf`, &Fault{At: 2 * time.Hour, Kind: FaultDegrade, Site: "New York", Factor: inf}},
		{`at 2h forecast-error zone=US-FLA factor=Inf`, &Fault{At: 2 * time.Hour, Kind: FaultForecastError, Zone: "US-FLA", Factor: inf}},
		{`at 1h crash site=Miami factor=NaN`, &Fault{At: time.Hour, Kind: FaultCrash, Site: "Miami", Factor: nan}},
		{`at 1h scale-out site=Miami capacity=NaN`, &Fault{At: time.Hour, Kind: FaultScaleOut, Site: "Miami", CapacityMilli: nan}},
		{`at 1h scale-out site=Miami capacity=+Inf`, &Fault{At: time.Hour, Kind: FaultScaleOut, Site: "Miami", CapacityMilli: inf}},
		{`at 1h crash site=Miami capacity=-Inf`, &Fault{At: time.Hour, Kind: FaultCrash, Site: "Miami", CapacityMilli: math.Inf(-1)}},
		{`at 1h degrade site=Miami factor=1e400`, nil}, // out of range: +Inf
		{`at 1h degrade site=Miami factor=2abc`, nil},
		{`at 1h degrade site=Miami factor=0.5.5`, nil},
		{`at 1h scale-out site=Miami capacity=4000mc`, nil},
		{`at 1h scale-out site=Miami capacity=4000 count=3x`, nil},
		{`at 1h scale-out site=Miami capacity=4000 count=2.5`, nil},
		{`at 1h scale-out site=Miami capacity=4000 count=`, nil},
		{`at 1h scale-out site=Miami capacity=4000 count=1025`, &Fault{At: time.Hour, Kind: FaultScaleOut, Site: "Miami", CapacityMilli: 4000, Count: MaxScaleOutCount + 1}},
		{`at 1h scale-out site=Miami capacity=4000 count=2147483647`, &Fault{At: time.Hour, Kind: FaultScaleOut, Site: "Miami", CapacityMilli: 4000, Count: math.MaxInt32}},
	} {
		if s, err := ParseFaultScript(tc.script); err == nil {
			t.Errorf("ParseFaultScript accepted %q as %+v", tc.script, s.Faults)
		}
		if tc.fault != nil {
			if err := tc.fault.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", *tc.fault)
			}
		}
	}
	// Values the script syntax cannot spell are refused up front.
	for _, f := range []Fault{
		{Kind: FaultCrash, Site: `Pier "39"`},
		{Kind: FaultCrash, Zone: "US\nFLA"},
		{Kind: FaultDegrade, Site: "Miami", Device: `A"2`, Factor: 0.5},
	} {
		if err := f.Validate(); err == nil {
			t.Errorf("Validate accepted unrenderable value in %+v", f)
		}
	}
	// The fixed parser still reads well-formed numbers exactly.
	s, err := ParseFaultScript("at 1h scale-out site=Miami capacity=2.5e3 count=3\nat 2h degrade site=Miami factor=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if f := s.Faults[0]; f.CapacityMilli != 2500 || f.Count != 3 {
		t.Errorf("scale-out parsed as %+v", f)
	}
	if f := s.Faults[1]; f.Factor != 0.25 {
		t.Errorf("degrade parsed as %+v", f)
	}
}

// TestFaultStringRoundTripsEdgeValues pins the renderings the fuzzer
// found breaking Parse(render(s)) == s: a '#' inside a value rendered
// unquoted (re-parsed as a comment), whitespace other than space and tab
// at a line's end (trimmed away), and count=1 (omitted, re-parsed as 0).
func TestFaultStringRoundTripsEdgeValues(t *testing.T) {
	for _, text := range []string{
		`at 1h crash site="a#b"`,
		"at 1h crash site=\"Miami\r\"",
		"at 1h crash zone=\"US-FLA \"",
		`at 1h scale-out site=Miami capacity=1 count=1`,
		`at 1h crash site=Miami count=-2`,
	} {
		s, err := ParseFaultScript(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		again, err := ParseFaultScript(render(s))
		if err != nil {
			t.Fatalf("%q rendered as %q: %v", text, render(s), err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Errorf("%q rendered as %q re-parsed to %+v, want %+v", text, render(s), again.Faults, s.Faults)
		}
	}
}

// render writes a script in the parseable line syntax, one fault per
// line.
func render(s *FaultScript) string {
	lines := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		lines[i] = f.String()
	}
	return strings.Join(lines, "\n")
}

// nextAt returns the due instant of the timeline's earliest pending
// event; ok is false when it is empty.
func nextAt(t *Timeline) (at time.Time, ok bool) {
	if len(t.h) == 0 {
		return time.Time{}, false
	}
	return t.h[0].At, true
}
