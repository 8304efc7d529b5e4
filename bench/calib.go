package main

import (
	"math"
	"strconv"
	"time"
)

// calib measures how fast the box is running while something is timed.
// The sandbox's speed moves by a factor of up to four within a minute
// (neighbours on the host contend for the core's sibling thread, cache
// and memory), so a wall time says as much about the minute it was taken
// in as about the program. A fixed reference kernel is therefore run
// between the program's operations, every calibEvery of host time, and
// host times are reported at the speed the kernel would have had on the
// quiet box: host time / slowdown. Time inside the kernel is not part of
// the rep's wall time.
type calib struct {
	last  time.Time
	spent time.Duration
	calls int
}

const calibEvery = 5 * time.Millisecond

// kernelRef is the kernel's time per call on the quiet sandbox (2 vCPU
// Xeon 2.1 GHz guest, one P): the scale that makes slowdown 1 there. It
// is a unit, not a measurement; changing it rescales every host number.
const kernelRef = 160 * time.Microsecond

var (
	calibArr  = make([]uint64, 1<<18) // 2 MB: past L2
	calibBuf  = make([]byte, 0, 64)
	calibSink uint64
)

func init() {
	for i := range calibArr {
		calibArr[i] = uint64(i)
	}
}

// tick runs the kernel if calibEvery has passed since it last ran.
func (c *calib) tick() {
	if now := time.Now(); now.Sub(c.last) >= calibEvery {
		c.kernel(now)
	}
}

// kernel is two fixed pieces of work that allocate nothing, so the
// program's own garbage collector does not charge them: float
// format/parse round trips (branchy, cache-resident, like most of the
// program; about two thirds of the kernel's time) and random
// read-modify-writes over 2 MB. Of the mixes tried (a dependent ALU
// chain, 256 KB and 4 MB walks, a JSON round trip) this one left the
// least spread in time/slowdown on every workload; see README.
func (c *calib) kernel(t0 time.Time) {
	f := 1.0 // the same numbers on every call: their length sets the work
	for i := 0; i < 600; i++ {
		calibBuf = strconv.AppendFloat(calibBuf[:0], f, 'g', -1, 64)
		g, _ := strconv.ParseFloat(string(calibBuf), 64)
		f = g*1.0000001 + 0.5
	}
	idx := uint64(f) + calibSink // other addresses on every call
	for i := 0; i < 5000; i++ {
		idx = idx*6364136223846793005 + 1442695040888963407
		calibArr[idx>>46] += idx
	}
	calibSink += calibArr[5]
	c.last = time.Now()
	c.spent += c.last.Sub(t0)
	c.calls++
}

// slowdown is the kernel's observed time over its reference time: 1 on
// the quiet box, above it when the box runs slower.
func (c *calib) slowdown() float64 {
	if c.calls == 0 {
		return 1
	}
	return float64(c.spent) / float64(c.calls) / float64(kernelRef)
}

// Set-up is one call (sim.NewWorld), so no kernel can run inside it, and
// it is float arithmetic (a year of traces for every zone), which the
// box's regimes slow about half as much as they slow the kernel above.
// It gets a burst of a float kernel before and after each build, and
// the median call of the two bursts sets its slowdown. With that, the
// medians of ten-run sets stayed within 8% of each other over three
// 300-build series in which the plain build times moved by 21-36%.
const (
	mathBurst = 16
	mathRef   = 120 * time.Microsecond
)

var mathBuf = make([]float64, 8192)

// mathKernel returns the time of one call.
func mathKernel() float64 {
	t0 := time.Now()
	x, s := 0.5, uint64(12345)
	for i := 0; i < 3000; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		u := float64(s>>11) / (1 << 53)
		x = math.Sin(x+u)*0.5 + math.Exp(-u)*0.25 + math.Log1p(u)
		mathBuf[i&8191] = x
	}
	calibSink += uint64(x * 1000)
	return float64(time.Since(t0))
}

// calibrated times fn between two bursts of the float kernel and returns
// its time at reference speed.
func calibrated(fn func() error) (time.Duration, error) {
	calls := make([]float64, 0, 2*mathBurst)
	burst := func() {
		for i := 0; i < mathBurst; i++ {
			calls = append(calls, mathKernel())
		}
	}
	burst()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	burst()
	return time.Duration(float64(d) * float64(mathRef) / median(calls)), err
}
