package timeline

import (
	"testing"
)

// FuzzSegmentSetInsert feeds arbitrary interval streams into SegmentSet
// and checks its invariants against a bitmap oracle.
func FuzzSegmentSetInsert(f *testing.F) {
	f.Add([]byte{1, 3, 5, 2, 10, 1})
	f.Add([]byte{0, 0, 1, 1, 2, 2})
	f.Add([]byte{200, 50, 10, 10, 10, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			s       SegmentSet
			covered [600]bool
		)
		for i := 0; i+1 < len(data); i += 2 {
			start := int(data[i]) + 1
			end := start + int(data[i+1])%32
			if end >= len(covered) {
				end = len(covered) - 1
			}
			if start > end {
				continue
			}
			s.Insert(Interval{Start: start, End: end})
			for x := start; x <= end; x++ {
				covered[x] = true
			}
		}
		// Invariant 1: segments sorted, disjoint, non-adjacent.
		segs := s.Segments()
		for k := 1; k < len(segs); k++ {
			if segs[k].Start <= segs[k-1].End+1 {
				t.Fatalf("segments not normalised: %v then %v", segs[k-1], segs[k])
			}
		}
		// Invariant 2: coverage matches the oracle: every segment minute is
		// covered, and (the segments being disjoint) as many as the oracle's.
		total := 0
		for x := 1; x < len(covered); x++ {
			if covered[x] {
				total++
			}
		}
		for _, seg := range segs {
			for x := seg.Start; x <= seg.End; x++ {
				if !covered[x] {
					t.Fatalf("segment %v covers uncovered time %d", seg, x)
				}
			}
		}
		if s.Total() != total {
			t.Fatalf("Total = %d, oracle %d", s.Total(), total)
		}
		// Invariant 3: gaps are exactly the uncovered stretches inside the
		// span.
		if first, last, ok := s.Bounds(); ok {
			gapLen := 0
			for _, g := range interiorGaps(&s) {
				gapLen += g.Len()
				for x := g.Start; x <= g.End; x++ {
					if covered[x] {
						t.Fatalf("gap %v overlaps covered time %d", g, x)
					}
				}
			}
			if s.Total()+gapLen != last-first+1 {
				t.Fatalf("total %d + gaps %d != span %d", s.Total(), gapLen, last-first+1)
			}
		}
	})
}
