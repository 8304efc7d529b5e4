package events

import (
	"reflect"
	"testing"
)

// FuzzParseFaultScript feeds arbitrary text to the fault-script parser. It
// must never panic, and any script it accepts must render back to text
// that parses to the same script: String is the inverse of
// ParseFaultScript on everything ParseFaultScript returns, so a scenario
// survives an injection acknowledgement, a log line or a config file.
func FuzzParseFaultScript(f *testing.F) {
	for _, seed := range []string{
		"",
		"# only a comment\n\n",
		"at 72h crash site=Miami for=24h",
		"at 120h forecast-error zone=US-FLA factor=3 for=12h",
		`at 200h degrade site="New York" device=A2 factor=0.5`,
		"at 240h scale-out site=Miami device=A2 capacity=4000 count=2",
		"at 300h recover zone=US-CAL\r\nat 1h30m crash zone=US-TEX # trailing comment",
		`at 320h crash site="Pier #39" # a quoted hash is data`,
		`at 1h crash site="a#b"`,
		`at 2h degrade site="New York" factor=NaN`,
		"at 1h scale-out site=Miami capacity=1e400 count=3x",
		"at 1h crash site=Miami count=1 factor=-0 capacity=0x1p3",
		"at 1h crash site=\"tab\there\" device=\"\"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseFaultScript(text)
		if err != nil {
			return
		}
		out := render(s)
		again, err := ParseFaultScript(out)
		if err != nil {
			t.Fatalf("accepted %q but not its rendering %q: %v", text, out, err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("%q rendered as %q re-parsed to\n%+v\nwant\n%+v", text, out, again.Faults, s.Faults)
		}
	})
}
