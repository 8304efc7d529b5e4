package latency

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/rng"
)

// Shaper emulates network delay between named endpoints, standing in for
// the Linux tc(8) traffic-control setup the paper uses on its testbed
// (§6.1.2). Delays are applied by sleeping, so end-to-end measurements in
// the emulated testbed include realistic network components.
//
// A Shaper is safe for concurrent use.
type Shaper struct {
	mu    sync.RWMutex
	delay map[[2]string]time.Duration
	// Scale compresses emulated time: a scale of 0.1 sleeps 10% of the
	// configured delay while Reported delays remain unscaled, keeping
	// tests fast without distorting measurements.
	scale float64
	rng   *rng.Rand
	jit   float64
	// gen advances on every change to the delay table, so a caller that
	// memoizes latencies can tell when to drop them (Gen).
	gen uint64
}

// NewShaper returns an empty shaper that sleeps the full configured delay.
func NewShaper() *Shaper {
	return &Shaper{
		delay: make(map[[2]string]time.Duration),
		scale: 1,
		rng:   rng.NewStd(1),
	}
}

// SetScale sets the real-sleep scale factor (0 disables sleeping entirely;
// 1 sleeps the full delay).
func (s *Shaper) SetScale(scale float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scale = scale
}

// SetJitter sets the relative jitter applied to each Delay call.
func (s *Shaper) SetJitter(rel float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jit = rel
}

// SetDelay configures the symmetric one-way delay between endpoints a and b.
func (s *Shaper) SetDelay(a, b string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.delay[key(a, b)] = d
	s.gen++
}

// ConfigureFromMatrix loads all pairwise delays from a latency matrix.
func (s *Shaper) ConfigureFromMatrix(mx *Matrix) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	names := mx.Names()
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			s.delay[key(names[i], names[j])] = time.Duration(mx.OneWayMs(i, j) * float64(time.Millisecond))
		}
	}
}

// Gen returns the delay table's generation: it advances with every
// SetDelay and ConfigureFromMatrix, and nothing else moves it, so a
// latency read through OneWay stays valid while Gen is unchanged.
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

// Delay sleeps for the (possibly jittered, possibly scaled) one-way delay
// from a to b, returning early with ctx's error if it is cancelled. It
// returns the emulated (unscaled) delay.
func (s *Shaper) Delay(ctx context.Context, a, b string) (time.Duration, error) {
	s.mu.RLock()
	d := s.delay[key(a, b)]
	scale := s.scale
	jit := s.jit
	var jitter float64
	if jit > 0 {
		jitter = 1 + jit*s.rng.NormFloat64()
		if jitter < 0.1 {
			jitter = 0.1
		}
	} else {
		jitter = 1
	}
	s.mu.RUnlock()

	if a == b {
		return 0, nil
	}
	emulated := time.Duration(float64(d) * jitter)
	sleep := time.Duration(float64(emulated) * scale)
	if sleep > 0 {
		t := time.NewTimer(sleep)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return emulated, ctx.Err()
		case <-t.C:
		}
	}
	return emulated, nil
}

// String summarizes the shaper configuration.
func (s *Shaper) String() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return fmt.Sprintf("Shaper(%d pairs, scale=%.2f)", len(s.delay), s.scale)
}

func key(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}
