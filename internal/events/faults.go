package events

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// FaultKind names a world-dynamics mutation. The interpretation of the
// target fields (site, device, zone) is the consuming layer's: the
// simulator resolves sites against its regional deployment, the
// orchestrator against its cluster's data centers.
type FaultKind string

// Fault kinds.
const (
	// FaultCrash takes the targeted servers down: their capacity drops to
	// zero, hosted applications are evicted and forced back through the
	// placement/redeploy path. Target by Site (optionally narrowed by
	// Device) or by Zone (a zone outage takes down every site in the
	// zone). With For set, a matching recover is scheduled automatically.
	FaultCrash FaultKind = "crash"
	// FaultRecover returns crashed servers to service (same targeting).
	FaultRecover FaultKind = "recover"
	// FaultDegrade scales the targeted servers' capacity by Factor
	// (0 < Factor): capacity flaps, thermal throttling, partial failures.
	// Applications that no longer fit are evicted. Factor 1 restores full
	// capacity; with For set the restore is scheduled automatically.
	FaultDegrade FaultKind = "degrade"
	// FaultForecastError multiplies the carbon forecast for Zone by
	// Factor — a forecast error spike. The actual intensity used for
	// accrual is untouched; only placement decisions see the error.
	// Factor 1 clears the spike; For schedules the clear automatically.
	FaultForecastError FaultKind = "forecast-error"
	// FaultScaleOut adds Count servers of Device with CapacityMilli
	// compute each at Site — a flash fleet scale-out.
	FaultScaleOut FaultKind = "scale-out"
)

// Fault is one declarative world-dynamics event. Faults are data: they
// carry no behaviour, so the same script drives both the simulator and
// the live orchestrator.
type Fault struct {
	// At is the fault's offset from the run (or injection) start.
	At time.Duration
	// Kind selects the mutation.
	Kind FaultKind
	// Site targets a hosting city ("" = target by Zone).
	Site string
	// Device optionally narrows a Site target to one device type.
	Device string
	// Zone targets a carbon zone (crash/recover/degrade: every site in
	// the zone; forecast-error: the zone's forecast).
	Zone string
	// Factor is the degrade capacity multiplier or the forecast-error
	// intensity multiplier.
	Factor float64
	// For, when positive, schedules the fault's automatic revert
	// (crash -> recover, degrade -> factor 1, forecast-error -> factor 1)
	// at At+For.
	For time.Duration
	// CapacityMilli is a scale-out server's compute capacity.
	CapacityMilli float64
	// Count is the number of servers a scale-out adds (default 1).
	Count int
}

// Validate reports problems with a single fault.
func (f Fault) Validate() error {
	if f.At < 0 {
		return fmt.Errorf("events: fault %s at negative offset %v", f.Kind, f.At)
	}
	// A NaN fails no "<= 0" test below, and a non-finite value cannot be
	// checkpointed (JSON has no spelling for it): reject both outright.
	if math.IsNaN(f.Factor) || math.IsInf(f.Factor, 0) {
		return fmt.Errorf("events: fault %s needs a finite factor, got %g", f.Kind, f.Factor)
	}
	if math.IsNaN(f.CapacityMilli) || math.IsInf(f.CapacityMilli, 0) {
		return fmt.Errorf("events: fault %s needs a finite capacity, got %g", f.Kind, f.CapacityMilli)
	}
	// The script syntax has no escape for a quote or a line break, so a
	// value holding one could not be rendered back (see String).
	for _, v := range []string{f.Site, f.Device, f.Zone} {
		if strings.ContainsAny(v, "\"\n") {
			return fmt.Errorf("events: fault %s value %q contains a quote or line break", f.Kind, v)
		}
	}
	switch f.Kind {
	case FaultCrash, FaultRecover:
		if f.Site == "" && f.Zone == "" {
			return fmt.Errorf("events: %s fault needs site= or zone=", f.Kind)
		}
	case FaultDegrade:
		if f.Site == "" && f.Zone == "" {
			return fmt.Errorf("events: degrade fault needs site= or zone=")
		}
		if f.Factor <= 0 {
			return fmt.Errorf("events: degrade fault needs factor > 0, got %g", f.Factor)
		}
	case FaultForecastError:
		if f.Zone == "" {
			return fmt.Errorf("events: forecast-error fault needs zone=")
		}
		if f.Factor <= 0 {
			return fmt.Errorf("events: forecast-error fault needs factor > 0, got %g", f.Factor)
		}
	case FaultScaleOut:
		if f.Site == "" {
			return fmt.Errorf("events: scale-out fault needs site=")
		}
		if f.CapacityMilli <= 0 {
			return fmt.Errorf("events: scale-out fault needs capacity > 0, got %g", f.CapacityMilli)
		}
		if f.Count < 0 {
			return fmt.Errorf("events: scale-out fault has negative count %d", f.Count)
		}
	default:
		return fmt.Errorf("events: unknown fault kind %q", f.Kind)
	}
	if f.For < 0 {
		return fmt.Errorf("events: fault %s has negative duration %v", f.Kind, f.For)
	}
	if f.For > 0 && (f.Kind == FaultRecover || f.Kind == FaultScaleOut) {
		// No revert exists for these kinds; accepting for= would silently
		// make a "temporary" fleet or recovery permanent.
		return fmt.Errorf("events: %s fault has no timed revert; drop for=%v", f.Kind, f.For)
	}
	return nil
}

// revert returns the fault's automatic revert, or ok=false when the fault
// is permanent (no For) or its kind has no revert.
func (f Fault) revert() (Fault, bool) {
	if f.For <= 0 {
		return Fault{}, false
	}
	r := Fault{At: f.At + f.For, Site: f.Site, Device: f.Device, Zone: f.Zone}
	switch f.Kind {
	case FaultCrash:
		r.Kind = FaultRecover
	case FaultDegrade:
		r.Kind, r.Factor = FaultDegrade, 1
	case FaultForecastError:
		r.Kind, r.Factor = FaultForecastError, 1
	default:
		return Fault{}, false
	}
	return r, true
}

// quoteVal wraps a script value in quotes when it contains whitespace or
// a '#', so it re-parses as one token (multi-word city names), is not cut
// as a comment, and keeps whitespace at its ends when it ends a line.
func quoteVal(v string) string {
	if strings.ContainsRune(v, '#') || strings.ContainsFunc(v, unicode.IsSpace) {
		return `"` + v + `"`
	}
	return v
}

// String renders the fault in the script syntax ParseFaultScript accepts.
func (f Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "at %s %s", f.At, f.Kind)
	if f.Site != "" {
		fmt.Fprintf(&b, " site=%s", quoteVal(f.Site))
	}
	if f.Device != "" {
		fmt.Fprintf(&b, " device=%s", quoteVal(f.Device))
	}
	if f.Zone != "" {
		fmt.Fprintf(&b, " zone=%s", quoteVal(f.Zone))
	}
	if f.Factor != 0 {
		fmt.Fprintf(&b, " factor=%g", f.Factor)
	}
	if f.For > 0 {
		fmt.Fprintf(&b, " for=%s", f.For)
	}
	if f.CapacityMilli != 0 {
		fmt.Fprintf(&b, " capacity=%g", f.CapacityMilli)
	}
	if f.Count != 0 {
		fmt.Fprintf(&b, " count=%d", f.Count)
	}
	return b.String()
}

// FaultScript is an ordered fault scenario — declarative data, parsed
// from text or built programmatically, consumed by the simulator
// (sim.Config.Faults), the faults experiment family, and the
// orchestrator's live injection endpoint.
type FaultScript struct {
	Faults []Fault
}

// Validate checks every fault in the script.
func (s *FaultScript) Validate() error {
	for i, f := range s.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// Expand returns the script's faults with every automatic revert
// (crash for=, degrade for=, forecast-error for=) materialized as its own
// fault, sorted by offset (stable: same-offset faults keep script order).
// This is the list consumers push onto a FaultQueue.
func (s *FaultScript) Expand() []Fault {
	out := make([]Fault, 0, len(s.Faults))
	for _, f := range s.Faults {
		out = append(out, f)
		if r, ok := f.revert(); ok {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// ScheduledFault is one fault due at an absolute instant: plain data, so
// a pending queue serializes into a checkpoint as is.
type ScheduledFault struct {
	// At is the instant the fault is due.
	At time.Time `json:"at"`
	// Fault is the declarative event to apply.
	Fault Fault `json:"fault"`
}

// FaultQueue holds pending faults in (due instant, insertion order): a
// fault pushed after another due at the same instant pops after it. Both
// drivers drain it the same way, popping every fault due at or before
// their clock. The zero value is an empty queue; it is not safe for
// concurrent use.
type FaultQueue struct {
	due []ScheduledFault
	// popped counts the faults popped so far: the ordinal of the next pop.
	popped int
}

// Push inserts f due at at, after every pending fault due at or before at.
// Pushing in due order (FaultScript.Expand's order) appends.
func (q *FaultQueue) Push(at time.Time, f Fault) {
	i := sort.Search(len(q.due), func(i int) bool { return q.due[i].At.After(at) })
	q.due = slices.Insert(q.due, i, ScheduledFault{At: at, Fault: f})
}

// PopDue removes and returns the first pending fault due at or before
// now, with its pop ordinal (0 for the queue's first pop, counting every
// pop since the queue was created); ok is false when none is due.
func (q *FaultQueue) PopDue(now time.Time) (sf ScheduledFault, seq int, ok bool) {
	if len(q.due) == 0 || q.due[0].At.After(now) {
		return ScheduledFault{}, 0, false
	}
	sf, seq = q.due[0], q.popped
	q.due = q.due[1:]
	q.popped++
	return sf, seq, true
}

// Len returns the number of pending faults.
func (q *FaultQueue) Len() int { return len(q.due) }

// Pending returns a copy of the pending faults in pop order.
func (q *FaultQueue) Pending() []ScheduledFault {
	return append([]ScheduledFault(nil), q.due...)
}

// String renders the script in the parseable line syntax.
func (s *FaultScript) String() string {
	lines := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		lines[i] = f.String()
	}
	return strings.Join(lines, "\n")
}

// ParseFaultScript parses the declarative fault scenario syntax: one
// fault per line,
//
//	at <offset> <kind> key=value ...
//
// where offset is a Go duration ("72h", "30m"), kind is one of crash,
// recover, degrade, forecast-error, scale-out, and the keys are site,
// device, zone, factor, for (revert delay), capacity (milli-units), and
// count. Blank lines and #-comments are ignored.
//
//	# take Miami down for a day at hour 72, double its fleet at hour 240
//	at 72h  crash site=Miami for=24h
//	at 120h forecast-error zone=US-FLA factor=3 for=12h
//	at 240h scale-out site=Miami device=A2 capacity=4000 count=2
func ParseFaultScript(text string) (*FaultScript, error) {
	s := &FaultScript{}
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		f, err := parseFaultLine(line)
		if err != nil {
			return nil, fmt.Errorf("events: line %d: %w", ln+1, err)
		}
		s.Faults = append(s.Faults, f)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	return s, nil
}

// stripComment cuts a line at its first unquoted '#', so comments never
// eat a '#' inside a quoted value.
func stripComment(line string) string {
	inQuote := false
	for i, r := range line {
		switch {
		case r == '"':
			inQuote = !inQuote
		case r == '#' && !inQuote:
			return line[:i]
		}
	}
	return line
}

// splitFields tokenizes a script line on whitespace, honouring double
// quotes so values like site="New York" stay one token (quotes stripped).
func splitFields(line string) ([]string, error) {
	var fields []string
	var cur strings.Builder
	inQuote, have := false, false
	for _, r := range line {
		switch {
		case r == '"':
			inQuote = !inQuote
			have = true
		case !inQuote && (r == ' ' || r == '\t'):
			if have || cur.Len() > 0 {
				fields = append(fields, cur.String())
				cur.Reset()
				have = false
			}
		default:
			cur.WriteRune(r)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote in %q", line)
	}
	if have || cur.Len() > 0 {
		fields = append(fields, cur.String())
	}
	return fields, nil
}

// parseFaultLine parses one "at <offset> <kind> k=v ..." line.
func parseFaultLine(line string) (Fault, error) {
	fields, err := splitFields(line)
	if err != nil {
		return Fault{}, err
	}
	if len(fields) < 3 || fields[0] != "at" {
		return Fault{}, fmt.Errorf("want %q, got %q", "at <offset> <kind> key=value ...", line)
	}
	at, err := time.ParseDuration(fields[1])
	if err != nil {
		return Fault{}, fmt.Errorf("bad offset %q: %v", fields[1], err)
	}
	f := Fault{At: at, Kind: FaultKind(fields[2])}
	for _, kv := range fields[3:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Fault{}, fmt.Errorf("bad argument %q (want key=value)", kv)
		}
		switch key {
		case "site":
			f.Site = val
		case "device":
			f.Device = val
		case "zone":
			f.Zone = val
		case "factor":
			if f.Factor, err = strconv.ParseFloat(val, 64); err != nil {
				return Fault{}, fmt.Errorf("bad factor %q", val)
			}
		case "for":
			d, err := time.ParseDuration(val)
			if err != nil {
				return Fault{}, fmt.Errorf("bad duration %q: %v", val, err)
			}
			f.For = d
		case "capacity":
			if f.CapacityMilli, err = strconv.ParseFloat(val, 64); err != nil {
				return Fault{}, fmt.Errorf("bad capacity %q", val)
			}
		case "count":
			if f.Count, err = strconv.Atoi(val); err != nil {
				return Fault{}, fmt.Errorf("bad count %q", val)
			}
		default:
			return Fault{}, fmt.Errorf("unknown key %q", key)
		}
	}
	return f, nil
}
