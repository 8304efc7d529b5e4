package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/carbon"
	"repro/internal/checkpoint"
	"repro/internal/events"
	"repro/internal/placement"
	"repro/internal/traffic"
)

// checkpointModes are 48 h Europe runs in each mode a snapshot has to
// carry: the classic epoch loop, 24 h redeploys with migration costs (the
// checkpoint_resume shape), traffic-driven routing, and a fault script
// that degrades, crashes, skews a forecast and scales out.
func checkpointModes(t testing.TB, w *World) []Config {
	t.Helper()
	mk := func(mutate func(*Config)) Config {
		cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
		cfg.Hours = 48
		mutate(&cfg)
		return cfg
	}
	classic := mk(func(*Config) {})
	city := hotCity(t, classic, w)
	return []Config{
		classic,
		mk(func(cfg *Config) {
			cfg.RedeployEveryHours = 24
			cfg.MigrationDataMB, cfg.MigrationJPerMB = 500, 0.2
		}),
		mk(func(cfg *Config) {
			cfg.Traffic = &traffic.Config{Scenario: traffic.FlashCrowd, RPS: 900}
			cfg.CollectLoadCI = true
		}),
		mk(func(cfg *Config) {
			cfg.Faults = &events.FaultScript{Faults: []events.Fault{
				{At: 12 * time.Hour, Kind: events.FaultDegrade, Site: city, Factor: 0.3, For: 6 * time.Hour},
				{At: 10 * time.Hour, Kind: events.FaultForecastError, Zone: w.Dep.InRegion(cfg.Region)[0].ZoneID, Factor: 3, For: 20 * time.Hour},
				{At: 30 * time.Hour, Kind: events.FaultCrash, Site: city, For: 10 * time.Hour},
				{At: 36 * time.Hour, Kind: events.FaultScaleOut, Site: city, CapacityMilli: 2000, Count: 2},
			}}
		}),
	}
}

// FuzzNewEngineFrom is the restore path under a hostile checkpoint: the
// fuzzer mutates a snapshot payload, the payload is re-sealed (so the
// digest is good) and decoded the way a restore reads a file, and the
// snapshot is restored into the config of the mode byte's run. Every
// snapshot that decodes must encode through AppendJSON to json.Marshal's
// bytes, or fail with its error: the fuzzer reaches hostile strings, -0,
// tiny and huge floats, and null against empty lists and maps. Every
// input must then either be rejected with an error or give an engine
// that steps to the end without panicking, physical (checkPhysical),
// with its live table's derived state matching a recount (checkLive) and
// with placement counts that conserve Placed (checkPlacementCounts,
// which a restore's count validation must have made hold) after every
// epoch. Seeds are snapshots of every mode at epochs 0, 20 and 40.
func FuzzNewEngineFrom(f *testing.F) {
	w := testWorld(f)
	modes := checkpointModes(f, w)
	for m, cfg := range modes {
		e, err := NewEngine(cfg, w)
		if err != nil {
			f.Fatal(err)
		}
		for !e.Done() {
			if e.Epoch()%20 == 0 {
				snap := e.Snapshot()
				if _, err := NewEngineFrom(cfg, w, snap); err != nil {
					f.Fatalf("mode %d epoch %d: seed does not restore: %v", m, e.Epoch(), err)
				}
				raw, err := json.Marshal(snap)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(uint8(m), raw)
			}
			if err := e.Step(); err != nil {
				f.Fatal(err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, mode uint8, payload []byte) {
		cfg := modes[int(mode)%len(modes)]
		var sealed bytes.Buffer
		if err := checkpoint.Encode(&sealed, "engine", json.RawMessage(payload)); err != nil {
			return // not JSON
		}
		var snap Snapshot
		if err := checkpoint.Decode(&sealed, "engine", &snap); err != nil {
			return
		}
		want, werr := json.Marshal(&snap)
		got, gerr := snap.AppendJSON(nil)
		if (werr != nil) != (gerr != nil) || werr != nil && gerr.Error() != werr.Error() || !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON = %.300q, %v; json.Marshal = %.300q, %v", got, gerr, want, werr)
		}
		e, err := NewEngineFrom(cfg, w, &snap)
		if err != nil {
			return
		}
		for !e.Done() {
			if err := e.Step(); err != nil {
				return
			}
			if err := checkPhysical(e); err != nil {
				t.Fatalf("restored at epoch %d, epoch %d: %v", snap.Epoch, e.Epoch()-1, err)
			}
			if err := checkLive(e); err != nil {
				t.Fatalf("restored at epoch %d, epoch %d: %v", snap.Epoch, e.Epoch()-1, err)
			}
			if err := checkPlacementCounts(e.Finish()); err != nil {
				t.Fatalf("restored at epoch %d, epoch %d: %v", snap.Epoch, e.Epoch()-1, err)
			}
		}
	})
}

// FuzzSimFaults is the simulator's fault path under a hostile script:
// the fuzzed text is parsed with events.ParseFaultScript and run as the
// fault script of checkpointModes' fault run (48 h Europe). A script
// that the parser, NewEngine or a Step refuses must be refused with an
// error; an accepted one steps to the end, physical (checkPhysical) and
// with its live table's derived state matching a recount (checkLive)
// after every epoch. Nothing may panic. Seeds are the fault run's own
// script and one line of each kind at its city and zone.
func FuzzSimFaults(f *testing.F) {
	w := testWorld(f)
	modes := checkpointModes(f, w)
	cfg := modes[len(modes)-1]
	city := strconv.Quote(cfg.Faults.Faults[0].Site)
	zone := strconv.Quote(cfg.Faults.Faults[1].Zone)
	lines := make([]string, len(cfg.Faults.Faults))
	for i, flt := range cfg.Faults.Faults {
		lines[i] = flt.String()
	}
	f.Add(strings.Join(lines, "\n"))
	for _, seed := range []string{
		"at 2h crash zone=" + zone + " for=10h",
		"at 5h degrade site=" + city + " factor=0.01 for=30h\nat 6h recover site=" + city,
		"at 1h scale-out site=" + city + ` device="GTX 1080" capacity=1 count=3`,
		"at 0s forecast-error zone=" + zone + " factor=1e300 for=1h",
		"at 47h crash site=" + city + "\nat 47h scale-out site=" + city + " capacity=4000 count=1024",
		"at 3h crash site=Atlantis",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		script, err := events.ParseFaultScript(text)
		if err != nil {
			return
		}
		c := cfg
		c.Faults = script
		e, err := NewEngine(c, w)
		if err != nil {
			return
		}
		for !e.Done() {
			if err := e.Step(); err != nil {
				return
			}
			if err := checkPhysical(e); err != nil {
				t.Fatalf("script %q, epoch %d: %v", text, e.Epoch()-1, err)
			}
			if err := checkLive(e); err != nil {
				t.Fatalf("script %q, epoch %d: %v", text, e.Epoch()-1, err)
			}
		}
		e.Finish()
	})
}

// FuzzAppendJSON holds AppendJSON to json.Marshal where the row cache
// and the result's lent count lists act. floats is read as 8-byte words,
// the power and RTT values of a live table in which every word recurs;
// labels is a newline-separated list of placements, each line a city
// placed in month 0, or in month 1 when it starts with "-". A snapshot
// is taken halfway through the placements and one at the end, both
// through one row cache: both must encode to json.Marshal's bytes (or
// fail with its error), and the first to the bytes it had before the
// second half ran. Each snapshot's count lists are also held to
// json.Marshal of maps of the same placements counted apart
// (checkCountsJSON). floats' bytes are also a script of row mutations
// between successive snapshots that share one row cache
// (fuzzCachedSnapshots).
func FuzzAppendJSON(f *testing.F) {
	words := func(fs ...float64) []byte {
		var b []byte
		for _, x := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(words(12.5, 75.25, math.Copysign(0, -1), 1e21, 150, 9.99e-7), "Paris\nRome\nParis\n-Rome\nOslo\n-Paris\nAmsterdam")
	f.Add(words(0.1, math.NaN(), 3), "a\n-a\na\n<b>\n\xff")
	f.Add([]byte(nil), "")
	// A 64-entry cached table from which one byte (0xfc) drops 63
	// entries, more than the cache's forward scan reaches.
	long := make([]float64, 40)
	for i := range long {
		long[i] = float64(i) * 1.25
	}
	f.Add(append(words(long...), words(math.Float64frombits(0xfcfcfcfcfcfcfcfc))...), "a")
	f.Fuzz(func(t *testing.T, floats []byte, labels string) {
		var vals []float64
		for i := 0; i+8 <= len(floats); i += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(floats[i:])))
		}
		r := counterResult()
		cities, months := map[string]int64{}, map[string]int64{}
		apply := func(ops []string) {
			for _, op := range ops {
				month := "/0"
				if l, ok := strings.CutPrefix(op, "-"); ok {
					op, month = l, "/1"
				}
				r.PlacementsByCity.Add(op, 1)
				r.MonthlyPlacements.Add(op+month, int64(len(op)))
				cities[op]++
				months[op+month] += int64(len(op))
			}
		}
		rows := new(rowCache)
		snap := func() *Snapshot {
			s := &Snapshot{ConfigSig: "fuzz", Result: r.State(), rows: rows}
			if len(vals) > 0 {
				s.Live = make([]LiveAppSnap, min(4*len(vals), 4096))
				for i := range s.Live {
					s.Live[i] = LiveAppSnap{Srv: i, PowerW: vals[i%len(vals)], RTTMs: vals[(3*i+1)%len(vals)]}
				}
			}
			checkCountsJSON(t, "cities", &rows.cities, s.Result.PlacementsByCity, cities)
			checkCountsJSON(t, "months", &rows.months, s.Result.MonthlyPlacements, months)
			return s
		}
		ops := strings.Split(labels, "\n")
		apply(ops[:len(ops)/2])
		a := snap()
		checkAppendJSON(t, "halfway", a)
		before, err := a.AppendJSON(nil)
		apply(ops[len(ops)/2:])
		checkAppendJSON(t, "end", snap())
		if after, _ := a.AppendJSON(nil); err == nil && !bytes.Equal(after, before) {
			t.Fatalf("halfway snapshot re-encodes to\n%s\nafter the later operations, was\n%s", after, before)
		}
		fuzzCachedSnapshots(t, vals, floats)
	})
}

// fuzzCachedSnapshots encodes successive snapshots of one table that
// share a row cache, as an engine's do. Each byte of script mutates the
// table the way an engine's epochs can, and more: it drops a prefix of
// the live table (up to 63 entries, past the cache's forward scan) or
// one entry, rewrites an entry's power from vals or its model name,
// flips the sign of an entry's RTT (0 and -0 render differently),
// rewrites a server's usage from vals, or appends an entry. The result's
// load_ci samples move with it: a drop cuts them short, a power rewrite
// rewrites one, a sign flip flips one and an append appends one. Every fourth
// byte takes a snapshot, which must encode to json.Marshal's bytes (or
// fail with its error); the first snapshot must encode to its own bytes
// at the end.
func fuzzCachedSnapshots(t *testing.T, vals []float64, script []byte) {
	val := func(i int) float64 {
		if len(vals) == 0 {
			return float64(i) / 4
		}
		return vals[i%len(vals)]
	}
	c := new(rowCache)
	servers := make([]ServerSnap, 3)
	var live []LiveAppSnap
	var load []float64
	for i := range min(2*len(vals), 64) {
		live = append(live, LiveAppSnap{Srv: i % 3, Model: "m", PowerW: val(i), RTTMs: val(i + 1), Expires: i})
		load = append(load, val(i+2))
	}
	take := func() *Snapshot {
		return &Snapshot{ConfigSig: "fuzz", Servers: slices.Clone(servers), Live: slices.Clone(live),
			Result: ResultState{LoadCI: slices.Clone(load)}, rows: c}
	}
	first := take()
	checkAppendJSON(t, "first cached", first)
	firstBytes, firstErr := first.AppendJSON(nil)
	for n, b := range script {
		at := int(b>>3) + n
		switch b % 7 {
		case 0:
			live = live[min(int(b>>2), len(live)):]
			load = load[:len(load)-min(int(b>>2), len(load))]
		case 1:
			if len(live) > 0 {
				live = slices.Delete(live, at%len(live), at%len(live)+1)
			}
		case 2:
			if len(live) > 0 {
				live[at%len(live)].PowerW = val(n)
			}
			if len(load) > 0 {
				load[at%len(load)] = val(n)
			}
		case 3:
			if len(live) > 0 {
				live[at%len(live)].Model = []string{"m", "n", "<m>"}[at%3]
			}
		case 4:
			if len(live) > 0 {
				a := &live[at%len(live)]
				a.RTTMs = math.Copysign(a.RTTMs, -a.RTTMs)
			}
			if len(load) > 0 {
				x := &load[at%len(load)]
				*x = math.Copysign(*x, -*x)
			}
		case 5:
			servers[at%3].Used[at%len(servers[0].Used)] = val(n)
		case 6:
			live = append(live, LiveAppSnap{Srv: at % 3, Model: "m", PowerW: val(n), RTTMs: val(at), Expires: n})
			load = append(load, val(at+1))
		}
		if n%4 == 3 {
			checkAppendJSON(t, fmt.Sprintf("cached after %d mutations", n+1), take())
		}
	}
	if again, err := first.AppendJSON(nil); firstErr == nil && (err != nil || !bytes.Equal(again, firstBytes)) {
		t.Fatalf("first cached snapshot re-encodes to\n%s\nafter the later ones (error %v), was\n%s", again, err, firstBytes)
	}
}
