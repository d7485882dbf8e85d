package timeline

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestProfileBasics(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int) Profile
	}{
		{"slice", func(h int) Profile { return NewSliceProfile(h) }},
		{"tree", func(h int) Profile { return NewTreeProfile(h) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mk(10)
			if p.Horizon() != 10 {
				t.Fatalf("Horizon = %d, want 10", p.Horizon())
			}
			if got := p.Max(1, 10); got != 0 {
				t.Fatalf("empty Max = %g, want 0", got)
			}
			p.Add(2, 5, 3)
			p.Add(4, 8, 2)
			tests := []struct {
				start, end int
				want       float64
			}{
				{1, 1, 0},
				{2, 3, 3},
				{4, 5, 5},
				{6, 8, 2},
				{9, 10, 0},
				{1, 10, 5},
				{5, 6, 5},
				{6, 6, 2},
			}
			for _, tt := range tests {
				if got := p.Max(tt.start, tt.end); got != tt.want {
					t.Errorf("Max(%d,%d) = %g, want %g", tt.start, tt.end, got, tt.want)
				}
			}
			if got := p.At(4); got != 5 {
				t.Errorf("At(4) = %g, want 5", got)
			}
			// Removal via negative Add.
			p.Add(2, 5, -3)
			if got := p.Max(1, 10); got != 2 {
				t.Errorf("after removal Max = %g, want 2", got)
			}
		})
	}
}

func TestProfilePanicsOnBadInterval(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Profile
	}{
		{"slice", NewSliceProfile(5)},
		{"tree", NewTreeProfile(5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, iv := range [][2]int{{0, 3}, {1, 6}, {4, 2}} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("Add(%d,%d) did not panic", iv[0], iv[1])
						}
					}()
					tc.p.Add(iv[0], iv[1], 1)
				}()
			}
		})
	}
}

func TestNewProfilePanicsOnBadHorizon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTreeProfile(0) did not panic")
		}
	}()
	NewTreeProfile(0)
}

// TestTreeMatchesSliceRandomOps drives both implementations with the same
// random operation sequence and requires identical answers.
func TestTreeMatchesSliceRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		horizon := 1 + rng.Intn(200)
		slice := NewSliceProfile(horizon)
		tree := NewTreeProfile(horizon)
		for op := 0; op < 100; op++ {
			a, b := 1+rng.Intn(horizon), 1+rng.Intn(horizon)
			if a > b {
				a, b = b, a
			}
			if rng.Intn(2) == 0 {
				amt := float64(rng.Intn(21) - 10)
				slice.Add(a, b, amt)
				tree.Add(a, b, amt)
			} else {
				if got, want := tree.Max(a, b), slice.Max(a, b); got != want {
					t.Fatalf("trial %d op %d: tree.Max(%d,%d) = %g, slice says %g",
						trial, op, a, b, got, want)
				}
			}
		}
		for tt := 1; tt <= horizon; tt++ {
			if got, want := tree.At(tt), slice.At(tt); got != want {
				t.Fatalf("trial %d: At(%d) = %g, want %g", trial, tt, got, want)
			}
		}
	}
}

// TestTreeMaxQuick: the max over a window after a single Add is the added
// amount iff the windows intersect.
func TestTreeMaxQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 1 + rng.Intn(100)
		p := NewTreeProfile(h)
		s := 1 + rng.Intn(h)
		e := s + rng.Intn(h-s+1)
		p.Add(s, e, 7)
		qs := 1 + rng.Intn(h)
		qe := qs + rng.Intn(h-qs+1)
		want := 0.0
		if qs <= e && s <= qe {
			want = 7
		}
		return p.Max(qs, qe) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTreeProfileAddMax(b *testing.B) {
	const horizon = 4096
	p := NewTreeProfile(horizon)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := 1 + rng.Intn(horizon)
		e := a + rng.Intn(horizon-a+1)
		p.Add(a, e, 1)
		_ = p.Max(a, e)
	}
}

func BenchmarkSliceProfileAddMax(b *testing.B) {
	const horizon = 4096
	p := NewSliceProfile(horizon)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := 1 + rng.Intn(horizon)
		e := a + rng.Intn(horizon-a+1)
		p.Add(a, e, 1)
		_ = p.Max(a, e)
	}
}
