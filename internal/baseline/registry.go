package baseline

import (
	"fmt"
	"slices"
	"strings"

	"vmalloc/internal/core"
)

// Constructor builds an allocator from the shared functional options. An
// allocator ignores the options it has no use for (a seed on MinCost, an
// ablation switch on FFPS), so callers pass the same options to every name.
type Constructor func(opts ...core.Option) core.Allocator

// registry is the one table of offline allocator names: `vmsim -config`,
// `vmalloc -algo` and the experiments' lineups all resolve through it, so a
// new allocator is one row here.
var registry = map[string]Constructor{
	"mincost":           func(o ...core.Option) core.Allocator { return core.NewMinCost(o...) },
	"mincost-lookahead": func(o ...core.Option) core.Allocator { return core.NewLookahead(o...) },
	"mincost-no-transition": func(o ...core.Option) core.Allocator {
		return core.NewMinCost(append(o, core.WithoutTransitionAwareness())...)
	},
	"ffps":                func(o ...core.Option) core.Allocator { return NewFFPS(o...) },
	"firstfit-efficiency": func(o ...core.Option) core.Allocator { return NewFirstFitSorted(ByEfficiency, o...) },
	"firstfit-capacity":   func(o ...core.Option) core.Allocator { return NewFirstFitSorted(ByCapacity, o...) },
	"bestfit":             func(o ...core.Option) core.Allocator { return NewBestFitCPU(o...) },
	"randomfit":           func(o ...core.Option) core.Allocator { return NewRandomFit(o...) },
	"minbusytime":         func(o ...core.Option) core.Allocator { return NewMinBusyTime(o...) },
	"vectorfit":           func(o ...core.Option) core.Allocator { return NewVectorFit(o...) },
	"worstfit":            func(o ...core.Option) core.Allocator { return NewWorstFit(o...) },
}

// aliases are spellings Lookup resolves but Names does not list.
var aliases = map[string]string{"firstfit": "firstfit-efficiency"}

// Names returns the registered allocator names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Lookup returns the constructor registered under name.
func Lookup(name string) (Constructor, error) {
	if full, ok := aliases[name]; ok {
		name = full
	}
	mk, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown allocator %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return mk, nil
}
