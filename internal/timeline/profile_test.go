package timeline

import (
	"math/rand"
	"testing"
)

// The profile is the per-minute oracle other tests trust (the Ledger's in
// ledger_test.go, core.Fleet's in core), so its own behaviour is pinned
// here by hand-computed values.
func TestProfileBasics(t *testing.T) {
	t.Run("slice", func(t *testing.T) {
		p := NewSliceProfile(10)
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

func TestProfilePanicsOnBadInterval(t *testing.T) {
	t.Run("slice", func(t *testing.T) {
		p := NewSliceProfile(5)
		for _, iv := range [][2]int{{0, 3}, {1, 6}, {4, 2}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Add(%d,%d) did not panic", iv[0], iv[1])
					}
				}()
				p.Add(iv[0], iv[1], 1)
			}()
		}
	})
}

func TestNewProfilePanicsOnBadHorizon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSliceProfile(0) did not panic")
		}
	}()
	NewSliceProfile(0)
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
