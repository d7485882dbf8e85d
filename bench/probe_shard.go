package main

import (
	"vmalloc/internal/shard"
)

// probeShard times shard.Map.Assign, the rendezvous hash behind every
// routed op, on a three-shard map.
func probeShard(scale int, out map[string]float64) {
	m, err := shard.NewMap([]shard.Shard{
		{Name: "s0", Addr: "http://a"}, {Name: "s1", Addr: "http://b"}, {Name: "s2", Addr: "http://c"},
	})
	if err != nil {
		return // three distinct constant names: NewMap cannot refuse them
	}
	id := 0
	out["shard.assign_ns"] = timeOp(100_000/scale, func() {
		id++
		m.Assign(id)
	})
}
