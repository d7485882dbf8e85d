package main

import "time"

// The in-process probes time calls into one internal package's public
// functions, with no service around them. Each lives in its own file,
// probe_<module>.go, so a probe whose target a later change removes can be
// deleted alone; SURFACE.md lists every internal symbol they call.

// timeOp reports the median wall time of one call of op in nanoseconds:
// op runs in batches of iters calls, and the median over the batches
// discards the ones a scheduler hiccup landed in.
func timeOp(iters int, op func()) float64 {
	iters = max(iters, 1)
	const batches = 9
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	return median(per)
}

// timePair times two ops that undo each other (add/remove, commit/release)
// separately: they alternate, each call is clocked on its own, and the
// medians over the batches are returned in nanoseconds per call.
func timePair(iters int, a, b func()) (aNs, bNs float64) {
	iters = max(iters, 1)
	const batches = 9
	as, bs := make([]float64, batches), make([]float64, batches)
	for k := 0; k < batches; k++ {
		var ta, tb time.Duration
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			a()
			t1 := time.Now()
			b()
			ta += t1.Sub(t0)
			tb += time.Since(t1)
		}
		as[k] = float64(ta.Nanoseconds()) / float64(iters)
		bs[k] = float64(tb.Nanoseconds()) / float64(iters)
	}
	return median(as), median(bs)
}
