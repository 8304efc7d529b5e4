package latency

import (
	"sync"
	"time"
)

// Shaper is the emulated network's delay table between named endpoints,
// standing in for the Linux tc(8) traffic-control setup the paper uses on
// its testbed (§6.1.2). It sleeps nothing: the orchestrator reads each
// pair's configured one-way delay, and twice it is the RTT that placement
// and routing charge.
//
// A Shaper is safe for concurrent use.
type Shaper struct {
	mu    sync.RWMutex
	delay map[[2]string]time.Duration
	// gen advances on every change to the delay table, so a caller that
	// memoizes latencies can tell when to drop them (Gen).
	gen uint64
}

// NewShaper returns an empty delay table.
func NewShaper() *Shaper {
	return &Shaper{delay: make(map[[2]string]time.Duration)}
}

// SetDelay configures the symmetric one-way delay between endpoints a and b.
func (s *Shaper) SetDelay(a, b string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.delay[key(a, b)] = d
	s.gen++
}

// Gen returns the delay table's generation: it advances with every
// SetDelay, and nothing else moves it, so a latency read through OneWay
// stays valid while Gen is unchanged.
func (s *Shaper) Gen() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// OneWay returns the configured one-way delay between endpoints, zero when
// unknown or equal.
func (s *Shaper) OneWay(a, b string) time.Duration {
	if a == b {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.delay[key(a, b)]
}

func key(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}
