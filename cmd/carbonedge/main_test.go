package main

import (
	"strings"
	"testing"
	"time"
)

// TestRunRejectsNonPositiveTick: the clock goroutine ticks every -tick,
// and time.NewTicker panics on an interval that is not positive, so
// `carbonedge -tick 0` crashed the service after it had started
// listening. run must refuse such a tick with an error before anything
// starts.
func TestRunRejectsNonPositiveTick(t *testing.T) {
	for _, tick := range []time.Duration{0, -time.Second} {
		err := run("127.0.0.1:0", "", "florida", "carbon", "", "", 42, tick, 40, 40)
		if err == nil || !strings.Contains(err.Error(), "-tick") {
			t.Errorf("tick %v: err = %v, want a -tick error", tick, err)
		}
	}
}
