package obs

import (
	"slices"
	"testing"
)

func TestRing(t *testing.T) {
	all := func(*int) bool { return true }
	for _, tc := range []struct {
		name   string
		cap    int
		pushes int
		want   []int // oldest first
	}{
		{"empty", 4, 0, []int{}},
		{"partly filled", 4, 3, []int{1, 2, 3}},
		{"exactly full", 4, 4, []int{1, 2, 3, 4}},
		{"wrapped", 4, 6, []int{3, 4, 5, 6}},
		{"wrapped onto slot 0", 4, 8, []int{5, 6, 7, 8}},
		{"capacity 1", 1, 3, []int{3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRing[int](tc.cap)
			for i := 1; i <= tc.pushes; i++ {
				r.push(&i)
			}
			if got := r.filter(0, all); !slices.Equal(got, tc.want) {
				t.Fatalf("contents %v, want %v", got, tc.want)
			}
			if r.len() != len(tc.want) {
				t.Fatalf("len %d, want %d", r.len(), len(tc.want))
			}
			newest := r.newest()
			if tc.pushes == 0 {
				if newest != nil {
					t.Fatalf("newest of an empty ring = %d", *newest)
				}
				return
			}
			if *newest != tc.pushes {
				t.Fatalf("newest %d, want %d", *newest, tc.pushes)
			}
			// Replace-newest: writing through the slot changes the last
			// element only and does not move the eviction cursor.
			*newest = -1
			want := append(slices.Clone(tc.want[:len(tc.want)-1]), -1)
			if got := r.filter(0, all); !slices.Equal(got, want) {
				t.Fatalf("after replace %v, want %v", got, want)
			}
			v := 99
			r.push(&v)
			want = append(want, 99)
			want = want[max(0, len(want)-tc.cap):]
			if got := r.filter(0, all); !slices.Equal(got, want) {
				t.Fatalf("after replace+push %v, want %v", got, want)
			}
		})
	}
}

func TestRingFilterKeepsNewestMatches(t *testing.T) {
	r := newRing[int](5)
	for i := 1; i <= 8; i++ { // holds 4..8
		r.push(&i)
	}
	even := func(v *int) bool { return *v%2 == 0 }
	if got := r.filter(0, even); !slices.Equal(got, []int{4, 6, 8}) {
		t.Fatalf("even = %v", got)
	}
	if got := r.filter(2, even); !slices.Equal(got, []int{6, 8}) {
		t.Fatalf("newest two even = %v", got)
	}
}
