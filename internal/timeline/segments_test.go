package timeline

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Start: 3, End: 7}
	if iv.Len() != 5 {
		t.Errorf("Len = %d, want 5", iv.Len())
	}
	if iv.String() != "[3,7]" {
		t.Errorf("String = %q", iv.String())
	}
}

func TestSegmentSetInsertMerging(t *testing.T) {
	tests := []struct {
		name   string
		insert []Interval
		want   []Interval
	}{
		{
			"disjoint stay disjoint",
			[]Interval{{1, 2}, {10, 12}, {5, 6}},
			[]Interval{{1, 2}, {5, 6}, {10, 12}},
		},
		{
			"overlap merges",
			[]Interval{{1, 5}, {4, 8}},
			[]Interval{{1, 8}},
		},
		{
			"adjacency merges",
			[]Interval{{1, 4}, {5, 8}},
			[]Interval{{1, 8}},
		},
		{
			"bridge merges three",
			[]Interval{{1, 2}, {8, 9}, {3, 7}},
			[]Interval{{1, 9}},
		},
		{
			"contained is absorbed",
			[]Interval{{1, 10}, {3, 4}},
			[]Interval{{1, 10}},
		},
		{
			"containing absorbs",
			[]Interval{{3, 4}, {1, 10}},
			[]Interval{{1, 10}},
		},
		{
			"gap of one unit does not merge",
			[]Interval{{1, 3}, {5, 7}},
			[]Interval{{1, 3}, {5, 7}},
		},
		{
			"single point",
			[]Interval{{4, 4}},
			[]Interval{{4, 4}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var s SegmentSet
			for _, iv := range tt.insert {
				s.Insert(iv)
			}
			if got := s.Segments(); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Segments = %v, want %v", got, tt.want)
			}
		})
	}
}

// interiorGaps lists the idle gaps between a set's consecutive segments,
// the gaps energy.SegmentCost prices (time outside the busy span is not a
// gap: the paper's servers sleep for free there).
func interiorGaps(s *SegmentSet) []Interval {
	var gaps []Interval
	for k := 1; k < len(s.segs); k++ {
		gaps = append(gaps, Interval{Start: s.segs[k-1].End + 1, End: s.segs[k].Start - 1})
	}
	return gaps
}

func TestSegmentSetGaps(t *testing.T) {
	tests := []struct {
		name   string
		insert []Interval
		want   []Interval
	}{
		{"empty", nil, nil},
		{"single", []Interval{{2, 5}}, nil},
		{"two", []Interval{{1, 3}, {7, 9}}, []Interval{{4, 6}}},
		{"three", []Interval{{1, 1}, {3, 3}, {10, 12}}, []Interval{{2, 2}, {4, 9}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var s SegmentSet
			for _, iv := range tt.insert {
				s.Insert(iv)
			}
			if got := interiorGaps(&s); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Gaps = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSegmentSetTotalAndCovers(t *testing.T) {
	var s SegmentSet
	s.Insert(Interval{1, 3})
	s.Insert(Interval{6, 6})
	if got := s.Total(); got != 4 {
		t.Errorf("Total = %d, want 4", got)
	}
	if got, want := s.Segments(), []Interval{{1, 3}, {6, 6}}; !reflect.DeepEqual(got, want) {
		t.Errorf("covered minutes %v, want %v", got, want)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestSegmentSetBounds(t *testing.T) {
	var s SegmentSet
	if _, _, ok := s.Bounds(); ok {
		t.Error("empty set has bounds")
	}
	s.Insert(Interval{5, 9})
	s.Insert(Interval{1, 2})
	first, last, ok := s.Bounds()
	if !ok || first != 1 || last != 9 {
		t.Errorf("Bounds = (%d, %d, %v), want (1, 9, true)", first, last, ok)
	}
}

func TestSegmentSetCloneIndependence(t *testing.T) {
	var s SegmentSet
	s.Insert(Interval{1, 3})
	c := s.Clone()
	c.Insert(Interval{10, 12})
	if s.Len() != 1 {
		t.Errorf("clone mutated original: %v", s.Segments())
	}
	if c.Len() != 2 {
		t.Errorf("clone missing insert: %v", c.Segments())
	}
}

func TestSegmentSetInsertPanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Insert of inverted interval did not panic")
		}
	}()
	var s SegmentSet
	s.Insert(Interval{5, 4})
}

// naiveSet is the boolean-array oracle for SegmentSet.
type naiveSet struct{ covered [512]bool }

func (n *naiveSet) insert(iv Interval) {
	for t := iv.Start; t <= iv.End; t++ {
		n.covered[t] = true
	}
}

func (n *naiveSet) segments() []Interval {
	var out []Interval
	start := -1
	for t := 0; t < len(n.covered); t++ {
		switch {
		case n.covered[t] && start < 0:
			start = t
		case !n.covered[t] && start >= 0:
			out = append(out, Interval{start, t - 1})
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, Interval{start, len(n.covered) - 1})
	}
	return out
}

func TestSegmentSetMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		var (
			s SegmentSet
			n naiveSet
		)
		for op := 0; op < 40; op++ {
			a := 1 + rng.Intn(500)
			b := a + rng.Intn(20)
			if b > 511 {
				b = 511
			}
			iv := Interval{a, b}
			var preview []Interval
			s.VisitWith(iv, func(seg Interval) { preview = append(preview, seg) })
			s.Insert(iv)
			n.insert(iv)

			want := n.segments()
			got := s.Segments()
			if len(got) == 0 {
				got = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d op %d: segments = %v, want %v", trial, op, got, want)
			}
			if !reflect.DeepEqual(preview, want) {
				t.Fatalf("trial %d op %d: VisitWith(%v) walked %v, Insert made %v", trial, op, iv, preview, want)
			}
		}
		// Cross-check Total on the final state.
		total := 0
		for tt := 1; tt <= 511; tt++ {
			if n.covered[tt] {
				total++
			}
		}
		if s.Total() != total {
			t.Fatalf("trial %d: Total = %d, want %d", trial, s.Total(), total)
		}
		// Gaps + segments must tile the busy span exactly.
		if first, last, ok := s.Bounds(); ok {
			span := last - first + 1
			gapLen := 0
			for _, g := range interiorGaps(&s) {
				gapLen += g.Len()
			}
			if s.Total()+gapLen != span {
				t.Fatalf("trial %d: total %d + gaps %d != span %d", trial, s.Total(), gapLen, span)
			}
		}
	}
}
