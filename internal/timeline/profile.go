// Package timeline provides the discrete-time substrate used by the
// allocators: per-server resource usage profiles over the planning horizon,
// and sets of disjoint busy segments with idle-gap iteration.
//
// Time follows the module-wide convention: integer minutes, closed
// intervals, horizon [1, T].
package timeline

import "fmt"

// Profile tracks the usage of one resource (CPU or memory) over the horizon
// [1, T], supporting interval addition/removal and window-maximum queries.
//
// Two implementations are provided: SliceProfile (O(len) updates and
// queries; simple, used as the test oracle) and TreeProfile (lazy segment
// tree, O(log T) updates and queries; used by the allocators).
type Profile interface {
	// Horizon returns T.
	Horizon() int
	// Add increases usage by amount over the closed interval [start, end].
	Add(start, end int, amount float64)
	// Max returns the maximum usage over the closed interval [start, end].
	Max(start, end int) float64
	// At returns the usage at time t.
	At(t int) float64
}

func checkInterval(start, end, horizon int) {
	if start < 1 || end > horizon || start > end {
		panic(fmt.Sprintf("timeline: interval [%d,%d] outside horizon [1,%d]", start, end, horizon))
	}
}

// SliceProfile is the straightforward Profile: one float64 per time unit.
type SliceProfile struct {
	use []float64 // index t-1 holds usage at time t
}

var _ Profile = (*SliceProfile)(nil)

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

// TreeProfile is a lazy-propagation segment tree over [1, T] supporting
// range-add updates and range-max queries in O(log T).
type TreeProfile struct {
	horizon int
	// maxv[i] is the max of node i's range assuming all pending adds above
	// it are applied; lazy[i] is the pending add for node i's whole range,
	// not yet pushed to children (but already reflected in maxv[i]).
	maxv []float64
	lazy []float64
}

var _ Profile = (*TreeProfile)(nil)

// NewTreeProfile returns an all-zero profile over [1, horizon].
func NewTreeProfile(horizon int) *TreeProfile {
	if horizon < 1 {
		panic(fmt.Sprintf("timeline: horizon %d < 1", horizon))
	}
	return &TreeProfile{
		horizon: horizon,
		maxv:    make([]float64, 4*horizon),
		lazy:    make([]float64, 4*horizon),
	}
}

// Horizon returns T.
func (p *TreeProfile) Horizon() int { return p.horizon }

// Add increases usage by amount over [start, end].
func (p *TreeProfile) Add(start, end int, amount float64) {
	checkInterval(start, end, p.horizon)
	p.add(1, 1, p.horizon, start, end, amount)
}

func (p *TreeProfile) add(node, lo, hi, start, end int, amount float64) {
	if start <= lo && hi <= end {
		p.maxv[node] += amount
		p.lazy[node] += amount
		return
	}
	mid := (lo + hi) / 2
	if start <= mid {
		p.add(2*node, lo, mid, start, end, amount)
	}
	if end > mid {
		p.add(2*node+1, mid+1, hi, start, end, amount)
	}
	p.maxv[node] = p.lazy[node] + max64(p.maxv[2*node], p.maxv[2*node+1])
}

// Max returns the maximum usage over [start, end].
func (p *TreeProfile) Max(start, end int) float64 {
	checkInterval(start, end, p.horizon)
	return p.query(1, 1, p.horizon, start, end)
}

func (p *TreeProfile) query(node, lo, hi, start, end int) float64 {
	if start <= lo && hi <= end {
		return p.maxv[node]
	}
	mid := (lo + hi) / 2
	var best float64
	switch {
	case end <= mid:
		best = p.query(2*node, lo, mid, start, end)
	case start > mid:
		best = p.query(2*node+1, mid+1, hi, start, end)
	default:
		best = max64(
			p.query(2*node, lo, mid, start, end),
			p.query(2*node+1, mid+1, hi, start, end),
		)
	}
	return best + p.lazy[node]
}

// At returns the usage at time t.
func (p *TreeProfile) At(t int) float64 { return p.Max(t, t) }

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
