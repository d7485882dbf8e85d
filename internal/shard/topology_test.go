package shard

import (
	"testing"

	"vmalloc/internal/api"
)

// TestAssignWeightedGolden pins concrete assignments for a non-uniform
// map, exactly as TestAssignGolden pins the uniform path: a change to
// the weighted score function would silently re-route resident VMs.
func TestAssignWeightedGolden(t *testing.T) {
	m := mustMap(t,
		Shard{Name: "a", Addr: "http://a", Weight: 1},
		Shard{Name: "b", Addr: "http://b", Weight: 3},
	)
	got := ""
	for id := 1; id <= 16; id++ {
		got += m.Assign(id).Name
	}
	const want = "abbbbaabbabbbbab"
	if got != want {
		t.Fatalf("weighted assignment for ids 1..16 = %q, want %q (weighted score changed?)", got, want)
	}
}

// TestAssignWeightOneMatchesUniform: a map whose weights are all
// explicitly 1 (or all equal) must assign identically to the
// weight-free map — the uniform fast path and the float path may never
// disagree, or a rolling upgrade that starts writing weight:1 into
// topology files would remap live VMs.
func TestAssignWeightOneMatchesUniform(t *testing.T) {
	plain := mustMap(t, Shard{Name: "a", Addr: "http://a"}, Shard{Name: "b", Addr: "http://b"}, Shard{Name: "c", Addr: "http://c"})
	weighted := mustMap(t,
		Shard{Name: "a", Addr: "http://a", Weight: 1},
		Shard{Name: "b", Addr: "http://b", Weight: 1},
		Shard{Name: "c", Addr: "http://c", Weight: 1},
	)
	// All-equal but non-1 weights must also take the uniform path.
	equal := mustMap(t,
		Shard{Name: "a", Addr: "http://a", Weight: 2.5},
		Shard{Name: "b", Addr: "http://b", Weight: 2.5},
		Shard{Name: "c", Addr: "http://c", Weight: 2.5},
	)
	for id := 1; id <= 2000; id++ {
		want := plain.Assign(id).Name
		if got := weighted.Assign(id).Name; got != want {
			t.Fatalf("id %d: weight-1 map assigns %q, unweighted assigns %q", id, got, want)
		}
		if got := equal.Assign(id).Name; got != want {
			t.Fatalf("id %d: equal-weight map assigns %q, unweighted assigns %q", id, got, want)
		}
	}
}

// TestAssignWeightBalance: shares track weights. A weight-2 shard among
// weight-1 peers should own about twice a peer's keys; accept ±30% of
// the expected share, matching TestAssignBalance's tolerance.
func TestAssignWeightBalance(t *testing.T) {
	m := mustMap(t,
		Shard{Name: "a", Addr: "http://a", Weight: 1},
		Shard{Name: "b", Addr: "http://b", Weight: 2},
		Shard{Name: "c", Addr: "http://c", Weight: 1},
	)
	counts := map[string]int{}
	const n = 8000
	for id := 1; id <= n; id++ {
		counts[m.Assign(id).Name]++
	}
	want := map[string]float64{"a": n / 4.0, "b": n / 2.0, "c": n / 4.0}
	for name, w := range want {
		c := float64(counts[name])
		if c < 0.7*w || c > 1.3*w {
			t.Errorf("shard %s owns %d of %d ids, want ~%.0f (weighted share)", name, counts[name], n, w)
		}
	}
}

// TestRemapScopeResize: growing 2→3 moves keys only onto the new shard;
// no key moves between the two survivors. This is the property the live
// rebalancer relies on — the drain plan touches exactly the new shard's
// keys.
func TestRemapScopeResize(t *testing.T) {
	two := mustMap(t, Shard{Name: "a", Addr: "http://a"}, Shard{Name: "b", Addr: "http://b"})
	three := mustMap(t, Shard{Name: "a", Addr: "http://a"}, Shard{Name: "b", Addr: "http://b"}, Shard{Name: "c", Addr: "http://c"})
	moved := 0
	for id := 1; id <= 4000; id++ {
		before, after := two.Assign(id).Name, three.Assign(id).Name
		if before != after {
			if after != "c" {
				t.Fatalf("id %d moved %s→%s on grow, but only the new shard may gain keys", id, before, after)
			}
			moved++
		}
	}
	// The new shard should win roughly a third of the key space.
	if moved < 4000/5 || moved > 4000/2 {
		t.Errorf("2→3 resize moved %d of 4000 keys, want roughly a third", moved)
	}
}

// TestRemapScopeWeightChange: raising one shard's weight moves keys only
// onto that shard; keys between the unchanged shards stay put. Holds
// because each shard's float score is a monotone function of its own
// raw hash, so the relative order of unchanged shards is unaffected.
func TestRemapScopeWeightChange(t *testing.T) {
	before := mustMap(t,
		Shard{Name: "a", Addr: "http://a", Weight: 1},
		Shard{Name: "b", Addr: "http://b", Weight: 1},
		Shard{Name: "c", Addr: "http://c", Weight: 1},
	)
	after := mustMap(t,
		Shard{Name: "a", Addr: "http://a", Weight: 1},
		Shard{Name: "b", Addr: "http://b", Weight: 4},
		Shard{Name: "c", Addr: "http://c", Weight: 1},
	)
	for id := 1; id <= 4000; id++ {
		from, to := before.Assign(id).Name, after.Assign(id).Name
		if from != to && to != "b" {
			t.Fatalf("id %d moved %s→%s though only b's weight changed", id, from, to)
		}
	}
	// And symmetrically: lowering weights back moves only b's keys away.
	for id := 1; id <= 4000; id++ {
		from, to := after.Assign(id).Name, before.Assign(id).Name
		if from != to && from != "b" {
			t.Fatalf("id %d moved %s→%s on weight decrease though only b changed", id, from, to)
		}
	}
}

// TestNewMapWeightValidation: negative, NaN and infinite weights are
// construction errors; 0 normalises to 1.
func TestNewMapWeightValidation(t *testing.T) {
	if _, err := NewMap([]Shard{{Name: "a", Addr: "http://a", Weight: -1}}); err == nil {
		t.Error("NewMap accepted a negative weight")
	}
	m := mustMap(t, Shard{Name: "a", Addr: "http://a"}, Shard{Name: "b", Addr: "http://b", Weight: 1})
	for _, s := range m.Shards() {
		if s.Weight != 1 {
			t.Errorf("shard %s weight = %v, want 1 (0 normalises to 1)", s.Name, s.Weight)
		}
	}
}

// TestTopologyRoundTrip: api.Topology → Map → api.Topology is lossless
// (modulo weight materialisation and URL normalisation), and epochs
// below 1 are rejected.
func TestTopologyRoundTrip(t *testing.T) {
	in := api.Topology{Epoch: 7, Shards: []api.TopologyShard{
		{Name: "a", URL: "http://a:8080/", Weight: 2},
		{Name: "b", URL: "http://b:8080"},
	}}
	m, err := FromTopology(in)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 7 {
		t.Errorf("epoch = %d, want 7", m.Epoch())
	}
	out := m.Topology()
	if out.Epoch != 7 || len(out.Shards) != 2 {
		t.Fatalf("round trip = %+v", out)
	}
	if out.Shards[0] != (api.TopologyShard{Name: "a", URL: "http://a:8080", Weight: 2}) {
		t.Errorf("shard 0 = %+v", out.Shards[0])
	}
	if out.Shards[1] != (api.TopologyShard{Name: "b", URL: "http://b:8080", Weight: 1}) {
		t.Errorf("shard 1 = %+v (0 weight should materialise as 1)", out.Shards[1])
	}
	if _, err := FromTopology(api.Topology{Epoch: 0, Shards: in.Shards}); err == nil {
		t.Error("FromTopology accepted epoch 0")
	}
}

// TestDecodeTopology: the wire/file decoder enforces shape (epoch ≥ 1,
// at least one shard) and surfaces JSON errors.
func TestDecodeTopology(t *testing.T) {
	good := `{"epoch": 2, "shards": [{"name": "a", "url": "http://a", "weight": 2}]}`
	tp, err := api.DecodeTopology([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if tp.Epoch != 2 || len(tp.Shards) != 1 || tp.Shards[0].Weight != 2 {
		t.Fatalf("decoded %+v", tp)
	}
	for _, bad := range []string{
		``,
		`{`,
		`{"epoch": 0, "shards": [{"name": "a", "url": "http://a"}]}`,
		`{"epoch": 3, "shards": []}`,
	} {
		if _, err := api.DecodeTopology([]byte(bad)); err == nil {
			t.Errorf("DecodeTopology accepted %q", bad)
		}
	}
}

// TestPlanMoves: the plan is exactly the remapped IDs, sorted, each move
// naming the correct old and new owner.
func TestPlanMoves(t *testing.T) {
	two := mustMap(t, Shard{Name: "a", Addr: "http://a"}, Shard{Name: "b", Addr: "http://b"})
	three := mustMap(t, Shard{Name: "a", Addr: "http://a"}, Shard{Name: "b", Addr: "http://b"}, Shard{Name: "c", Addr: "http://c"})
	ids := []int{16, 3, 1, 9, 12, 5}
	moves := PlanMoves(two, three, ids)
	for i, mv := range moves {
		if i > 0 && moves[i-1].ID >= mv.ID {
			t.Fatalf("plan not sorted by ID: %+v", moves)
		}
		if got := two.Assign(mv.ID).Name; got != mv.From.Name {
			t.Errorf("move %d: From = %s, old map assigns %s", mv.ID, mv.From.Name, got)
		}
		if got := three.Assign(mv.ID).Name; got != mv.To.Name {
			t.Errorf("move %d: To = %s, new map assigns %s", mv.ID, mv.To.Name, got)
		}
		if mv.To.Name != "c" {
			t.Errorf("move %d targets %s, but growing 2→3 only moves keys to c", mv.ID, mv.To.Name)
		}
	}
	planned := map[int]bool{}
	for _, mv := range moves {
		planned[mv.ID] = true
	}
	for _, id := range ids {
		remapped := two.Assign(id).Name != three.Assign(id).Name
		if remapped != planned[id] {
			t.Errorf("id %d: remapped=%v but planned=%v", id, remapped, planned[id])
		}
	}
}

// TestPlacementDigest: order-independent, content-sensitive.
func TestPlacementDigest(t *testing.T) {
	a := []Placement{
		{ID: 2, Shard: "b", Start: 5, End: 9, CPU: 2, Mem: 3.75},
		{ID: 1, Shard: "a", Start: 1, End: 4, CPU: 1, Mem: 1.7},
	}
	b := []Placement{a[1], a[0]} // same set, different order
	if PlacementDigest(a) != PlacementDigest(b) {
		t.Error("PlacementDigest depends on input order")
	}
	c := []Placement{a[0], {ID: 1, Shard: "b", Start: 1, End: 4, CPU: 1, Mem: 1.7}}
	if PlacementDigest(a) == PlacementDigest(c) {
		t.Error("PlacementDigest ignores the owning shard")
	}
	d := []Placement{a[0], {ID: 1, Shard: "a", Start: 2, End: 5, CPU: 1, Mem: 1.7}}
	if PlacementDigest(a) == PlacementDigest(d) {
		t.Error("PlacementDigest ignores the schedule")
	}
}

// TestWithEpoch: epoch stamping never changes routing.
func TestWithEpoch(t *testing.T) {
	m := mustMap(t, Shard{Name: "a", Addr: "http://a"}, Shard{Name: "b", Addr: "http://b"})
	e := m.WithEpoch(42)
	if e.Epoch() != 42 || m.Epoch() != 0 {
		t.Fatalf("epochs = %d, %d; want 42, 0", e.Epoch(), m.Epoch())
	}
	for id := 1; id <= 500; id++ {
		if m.Assign(id).Name != e.Assign(id).Name {
			t.Fatalf("id %d: WithEpoch changed routing", id)
		}
	}
}
