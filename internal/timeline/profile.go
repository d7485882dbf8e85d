// Package timeline provides the discrete-time substrate used by the
// allocators: sets of disjoint busy segments with idle-gap iteration, the
// service's per-server reservation Ledger, and SliceProfile, the
// per-minute usage array both the Ledger and core.Fleet are tested against.
//
// Time follows the module-wide convention: integer minutes, closed
// intervals, horizon [1, T].
package timeline

import "fmt"

func checkInterval(start, end, horizon int) {
	if start < 1 || end > horizon || start > end {
		panic(fmt.Sprintf("timeline: interval [%d,%d] outside horizon [1,%d]", start, end, horizon))
	}
}

// SliceProfile tracks the usage of one resource (CPU or memory) over the
// horizon [1, T] the straightforward way, one float64 per time unit with
// O(len) interval additions and window maxima: the oracle the faster
// structures (Ledger, core.Fleet) are held to, not one an allocator uses.
type SliceProfile struct {
	use []float64 // index t-1 holds usage at time t
}

// NewSliceProfile returns an all-zero profile over [1, horizon].
func NewSliceProfile(horizon int) *SliceProfile {
	if horizon < 1 {
		panic(fmt.Sprintf("timeline: horizon %d < 1", horizon))
	}
	return &SliceProfile{use: make([]float64, horizon)}
}

// Horizon returns T.
func (p *SliceProfile) Horizon() int { return len(p.use) }

// Add increases usage by amount over [start, end].
func (p *SliceProfile) Add(start, end int, amount float64) {
	checkInterval(start, end, len(p.use))
	for t := start; t <= end; t++ {
		p.use[t-1] += amount
	}
}

// Max returns the maximum usage over [start, end].
func (p *SliceProfile) Max(start, end int) float64 {
	checkInterval(start, end, len(p.use))
	maxUse := p.use[start-1]
	for t := start + 1; t <= end; t++ {
		if p.use[t-1] > maxUse {
			maxUse = p.use[t-1]
		}
	}
	return maxUse
}

// At returns the usage at time t.
func (p *SliceProfile) At(t int) float64 {
	checkInterval(t, t, len(p.use))
	return p.use[t-1]
}
