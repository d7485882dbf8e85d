package main

import (
	"math"
	"net"
	"time"
)

// The sandbox this benchmark is accepted on changes speed under it: for
// minutes at a time every workload runs 20–50% slower, then recovers (see
// AA.md). A run therefore times a fixed kernel of its own between its
// rounds — the calibration loop ROADMAP item 1 asks for — and reports its
// end-to-end times and rates at the reference machine's speed. The kernel
// has the two parts the workloads are made of: computing (a xorshift spin)
// and waking a peer through the kernel (one-byte round trips over loopback
// TCP). In a 40-minute watch of four workloads their geometric mean tracked
// throughput with correlation -0.8 to -0.9 and took out 30–60% of its
// standard deviation.

// The kernel's times on the reference box in a quiet phase: speed is 1
// there.
const (
	refSpinMS = 16.0
	refPingMS = 11.5
)

const pingTrips = 1500

// calibration collects the kernel's timings over one run.
type calibration struct {
	spinMS, pingMS []float64
	sink           uint64
}

// sample times the kernel once (≈30 ms).
func (c *calibration) sample() {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 8_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	c.sink += x // keeps the loop from being optimised away
	c.spinMS = append(c.spinMS, ms(time.Since(t0)))
	if d, err := pingPong(pingTrips); err == nil {
		c.pingMS = append(c.pingMS, ms(d))
	}
}

// atReference converts a time measured on this run's machine to the
// reference machine's: the part that is computing or waking peers scales
// with speed, the part that is a timer (fixed) does not.
func (c *calibration) atReference(measured, fixed float64) float64 {
	return fixed + (measured-fixed)*c.speed()
}

// speed is the machine's speed over the run relative to the reference: the
// geometric mean of how much faster than the reference the two kernel parts
// ran, from their medians. Below 1 the machine was slow, and measured times
// are scaled down by it.
func (c *calibration) speed() float64 {
	if len(c.spinMS) == 0 {
		return 1
	}
	spin := refSpinMS / median(c.spinMS)
	if len(c.pingMS) == 0 {
		return spin
	}
	return math.Sqrt(spin * refPingMS / median(c.pingMS))
}

// pingPong times n one-byte round trips between two goroutines over a
// loopback TCP connection.
func pingPong(n int) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	go func() {
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		b := make([]byte, 1)
		for {
			if _, err := peer.Read(b); err != nil {
				return // the dialling side closed: the exchange is over
			}
			if _, err := peer.Write(b); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	b := make([]byte, 1)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Write(b); err != nil {
			return 0, err
		}
		if _, err := c.Read(b); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}
