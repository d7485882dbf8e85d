package shard

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/obs"
)

func named(names ...string) []Shard {
	out := make([]Shard, len(names))
	for i, n := range names {
		out[i] = Shard{Name: n, Addr: "http://" + n}
	}
	return out
}

// mig is a migration record reduced to its sort key.
func mig(time int, seq int64, vm int) api.MigrationRecord {
	return api.MigrationRecord{Time: time, Seq: seq, VM: vm}
}

// order renders a merged record list as "time/shard/seq" keys.
func order(ms []api.MigrationRecord) string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = fmt.Sprintf("%d/%s/%d", m.Time, m.Shard, m.Seq)
	}
	return strings.Join(keys, " ")
}

func TestMergeMigrations(t *testing.T) {
	for _, tc := range []struct {
		name      string
		shards    []Shard
		parts     []api.MigrationsResponse
		limit     int
		wantCount int
		wantOrder string
	}{
		{name: "empty shard list", wantOrder: ""},
		{
			name:   "one shard keeps its order and gets stamped",
			shards: named("a"),
			parts: []api.MigrationsResponse{{Count: 3, Migrations: []api.MigrationRecord{
				mig(1, 1, 7), mig(4, 2, 8)}}}, // Count is lifetime, > len(retained)
			wantCount: 3, wantOrder: "1/a/1 4/a/2",
		},
		{
			// Same minute on both shards: shard name breaks the tie, then
			// seq within a shard; an earlier minute beats both.
			name:   "tie order is (time, shard, seq)",
			shards: named("b", "a"),
			parts: []api.MigrationsResponse{
				{Count: 2, Migrations: []api.MigrationRecord{mig(5, 2, 1), mig(5, 1, 2)}},
				{Count: 2, Migrations: []api.MigrationRecord{mig(5, 9, 3), mig(3, 8, 4)}},
			},
			wantCount: 4, wantOrder: "3/a/8 5/a/9 5/b/1 5/b/2",
		},
		{
			name:   "limit keeps the newest of the merged list, count stays whole",
			shards: named("a", "b"),
			parts: []api.MigrationsResponse{
				{Count: 2, Migrations: []api.MigrationRecord{mig(1, 1, 1), mig(6, 2, 2)}},
				{Count: 1, Migrations: []api.MigrationRecord{mig(4, 1, 3)}},
			},
			limit: 2, wantCount: 3, wantOrder: "4/b/1 6/a/2",
		},
		{
			name:   "limit above the list length trims nothing",
			shards: named("a"),
			parts:  []api.MigrationsResponse{{Count: 1, Migrations: []api.MigrationRecord{mig(1, 1, 1)}}},
			limit:  9, wantCount: 1, wantOrder: "1/a/1",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := MergeMigrations(tc.shards, tc.parts, tc.limit)
			if got.Count != tc.wantCount || order(got.Migrations) != tc.wantOrder {
				t.Fatalf("count %d order %q, want %d %q", got.Count, order(got.Migrations), tc.wantCount, tc.wantOrder)
			}
			if got.Migrations == nil {
				t.Fatal("merged list is nil; it must encode as [], not null")
			}
		})
	}
}

func TestMergeConsolidate(t *testing.T) {
	empty := MergeConsolidate(nil, nil)
	if empty.Moves == nil || len(empty.Moves) != 0 || empty.Clock != 0 || empty.Executed != 0 {
		t.Fatalf("empty merge = %+v", empty)
	}
	one := api.ConsolidateResponse{Clock: 12, Policy: "min-utilization", Donors: 2, Executed: 1,
		EnergySavedWattMinutes: 40.5, Moves: []api.MigrationRecord{mig(12, 3, 7)}}
	got := MergeConsolidate(named("a"), []api.ConsolidateResponse{one})
	want := one
	want.Moves = []api.MigrationRecord{{Time: 12, Seq: 3, VM: 7, Shard: "a"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one shard: %+v, want %+v", got, want)
	}
	// The slowest shard's clock wins wherever it sits in the list; sums
	// cover every shard; moves interleave by (time, shard, seq).
	got = MergeConsolidate(named("a", "b", "c"), []api.ConsolidateResponse{
		{Clock: 30, Policy: "p", Donors: 1, Executed: 2, EnergySavedWattMinutes: 1.5,
			Moves: []api.MigrationRecord{mig(30, 1, 1), mig(30, 2, 2)}},
		{Clock: 10, Policy: "p", Donors: 4, Executed: 0, EnergySavedWattMinutes: 0, Moves: nil},
		{Clock: 20, Policy: "p", Donors: 0, Executed: 1, EnergySavedWattMinutes: 2.25,
			Moves: []api.MigrationRecord{mig(20, 5, 3)}},
	})
	if got.Clock != 10 || got.Policy != "p" || got.Donors != 5 || got.Executed != 3 || got.EnergySavedWattMinutes != 3.75 {
		t.Fatalf("folded = %+v", got)
	}
	if order(got.Moves) != "20/c/5 30/a/1 30/a/2" {
		t.Fatalf("move order %q", order(got.Moves))
	}
}

func TestMergeTraces(t *testing.T) {
	if got := MergeTraces(nil, nil); got.Traces == nil || got.Count != 0 || got.Spans != 0 {
		t.Fatalf("empty merge = %+v", got)
	}
	own := []obs.Span{{TraceID: "t1", SpanID: "g", Name: obs.SpanRoute}}
	parts := []api.TracesResponse{
		{Traces: []api.Trace{{TraceID: "t1", Spans: []obs.Span{{TraceID: "t1", SpanID: "s", Parent: "g", Name: obs.SpanScan}}}}},
		{}, // a shard that failed the fetch contributes nothing
		{Traces: []api.Trace{{TraceID: "t2", Spans: []obs.Span{{TraceID: "t2", SpanID: "x", Name: obs.SpanRoute}}}}},
	}
	got := MergeTraces(own, parts)
	if got.Count != 2 || got.Spans != 3 {
		t.Fatalf("count %d spans %d, want 2 traces / 3 spans", got.Count, got.Spans)
	}
}

func TestSplitJoinAdmits(t *testing.T) {
	m, err := NewMap(named("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]api.AdmitRequest, 40)
	for i := range reqs {
		reqs[i].ID = 100 - i // descending, so batch order ≠ id order
	}
	groups, err := SplitAdmits(m, reqs)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	resps := make([][]api.AdmitResponse, len(groups))
	for k, g := range groups {
		if k > 0 && groups[k-1].Shard.Name >= g.Shard.Name {
			t.Fatalf("groups out of map order: %s before %s", groups[k-1].Shard.Name, g.Shard.Name)
		}
		for j, i := range g.Indices {
			if j > 0 && g.Indices[j-1] >= i {
				t.Fatalf("shard %s indices not ascending: %v", g.Shard.Name, g.Indices)
			}
			if g.Requests[j].ID != reqs[i].ID || m.Assign(reqs[i].ID).Name != g.Shard.Name {
				t.Fatalf("request %d (vm %d) misrouted to %s", i, reqs[i].ID, g.Shard.Name)
			}
			resps[k] = append(resps[k], api.AdmitResponse{ID: g.Requests[j].ID, Accepted: true})
			seen++
		}
	}
	if seen != len(reqs) || len(groups) != 3 {
		t.Fatalf("split covered %d of %d requests in %d groups", seen, len(reqs), len(groups))
	}
	out, err := JoinAdmits(groups, resps)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		if r.ID != reqs[i].ID {
			t.Fatalf("response %d is for vm %d, want %d (request order)", i, r.ID, reqs[i].ID)
		}
	}

	// A shard answering out of order is named, with the first bad position.
	resps[1][1], resps[1][2] = resps[1][2], resps[1][1]
	if _, err := JoinAdmits(groups, resps); err == nil || !strings.Contains(err.Error(), "shard "+groups[1].Shard.Name+": answer 1 ") {
		t.Fatalf("swapped answer: err = %v, want one naming shard %s and answer 1", err, groups[1].Shard.Name)
	}
	// A shard answering with the wrong number of outcomes is named.
	resps[1] = resps[1][1:]
	if _, err := JoinAdmits(groups, resps); err == nil || !strings.Contains(err.Error(), "shard "+groups[1].Shard.Name) {
		t.Fatalf("short answer: err = %v, want one naming shard %s", err, groups[1].Shard.Name)
	}
	// Routing is by id: a request without one is refused by position.
	reqs[7].ID = 0
	if _, err := SplitAdmits(m, reqs); err == nil || !strings.Contains(err.Error(), "request 7") {
		t.Fatalf("missing id: err = %v, want one naming request 7", err)
	}
	if groups, err := SplitAdmits(m, nil); err != nil || len(groups) != 0 {
		t.Fatalf("empty batch: %v groups, err %v", groups, err)
	}
}
