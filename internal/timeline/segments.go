// Package timeline provides the discrete-time substrate used by the
// allocators: sets of disjoint busy segments, and the service's per-server
// reservation Ledger. The per-minute usage both the Ledger and core.Fleet
// are tested against is model.Usage.
//
// Time follows the module-wide convention: integer minutes, closed
// intervals.
package timeline

import (
	"fmt"
	"sort"
)

// Interval is a closed time interval [Start, End].
type Interval struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len returns the number of time units covered (End−Start+1).
func (iv Interval) Len() int { return iv.End - iv.Start + 1 }

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Start, iv.End) }

// SegmentSet maintains a set of disjoint, non-adjacent closed intervals in
// increasing order — a server's busy segments. Inserting an interval merges
// it with any overlapping or adjacent segments ([3,5] and [6,8] are
// adjacent in discrete time and merge to [3,8]).
//
// The zero value is an empty set ready for use.
type SegmentSet struct {
	segs []Interval
}

// Insert adds the interval to the set, merging as needed.
func (s *SegmentSet) Insert(iv Interval) {
	if iv.Start > iv.End {
		panic(fmt.Sprintf("timeline: inverted interval %v", iv))
	}
	// Position of the first segment that could touch iv: segments are
	// mergeable with iv when seg.End >= iv.Start-1.
	lo := sort.Search(len(s.segs), func(i int) bool {
		return s.segs[i].End >= iv.Start-1
	})
	// Position one past the last segment that could touch iv.
	hi := lo
	for hi < len(s.segs) && s.segs[hi].Start <= iv.End+1 {
		hi++
	}
	if lo == hi {
		// No merging: insert at lo.
		s.segs = append(s.segs, Interval{})
		copy(s.segs[lo+1:], s.segs[lo:])
		s.segs[lo] = iv
		return
	}
	merged := iv
	if s.segs[lo].Start < merged.Start {
		merged.Start = s.segs[lo].Start
	}
	if s.segs[hi-1].End > merged.End {
		merged.End = s.segs[hi-1].End
	}
	s.segs[lo] = merged
	s.segs = append(s.segs[:lo+1], s.segs[hi:]...)
}

// VisitWith calls visit, in increasing order, with each segment the set
// would hold after Insert(iv). The set is not modified and nothing is
// allocated: it is how a candidate interval is priced without a Clone.
func (s *SegmentSet) VisitWith(iv Interval, visit func(Interval)) {
	k := 0
	for ; k < len(s.segs) && s.segs[k].End < iv.Start-1; k++ {
		visit(s.segs[k])
	}
	for ; k < len(s.segs) && s.segs[k].Start <= iv.End+1; k++ {
		iv.Start = min(iv.Start, s.segs[k].Start)
		iv.End = max(iv.End, s.segs[k].End)
	}
	visit(iv)
	for ; k < len(s.segs); k++ {
		visit(s.segs[k])
	}
}

// Total returns the total number of covered time units.
func (s *SegmentSet) Total() int {
	var total int
	for _, seg := range s.segs {
		total += seg.Len()
	}
	return total
}

// Segments returns the segments in increasing order. The returned slice is
// a copy.
func (s *SegmentSet) Segments() []Interval {
	out := make([]Interval, len(s.segs))
	copy(out, s.segs)
	return out
}

// View returns the segments in increasing order without copying them: the
// set's own slice, valid until the next Insert and not to be written. It is
// what lets a candidate interval be priced with a plain loop.
func (s *SegmentSet) View() []Interval { return s.segs }

// Clone returns an independent copy of the set.
func (s *SegmentSet) Clone() *SegmentSet {
	c := &SegmentSet{segs: make([]Interval, len(s.segs))}
	copy(c.segs, s.segs)
	return c
}

// Bounds returns the first covered and last covered time unit, or ok=false
// for an empty set.
func (s *SegmentSet) Bounds() (first, last int, ok bool) {
	if len(s.segs) == 0 {
		return 0, 0, false
	}
	return s.segs[0].Start, s.segs[len(s.segs)-1].End, true
}
