package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"

	"vmalloc/internal/energy"
	"vmalloc/internal/model"
)

// goldenStates are the GET /v1/state bodies testdata/state.golden pins:
// a state with every field set, a server without a type and a VM without
// one; the two ways a list can be empty (an empty slice is [], a nil one
// null); and a state encoding/json writes with escapes and exponents.
func goldenStates() []*StateResponse {
	full := &StateResponse{
		Now: 1441, Policy: "mincost", IdleTimeout: 3, Admitted: 812, Released: 96,
		Migrations: 4, MigrationSaved: -3.125, Transitions: 37, ServersUsed: 3,
		Energy:      energy.Breakdown{Run: 52713.84375, Idle: 9120.5, Transition: 12345.678901234567},
		TotalEnergy: 74180.02215123457, TotalStartDelay: 19, MaxStartDelay: 2,
		Servers: []ServerState{
			{ID: 1, Type: "xeon-3040", State: "active", VMs: 2},
			{ID: 2, State: "power-saving"},
			{ID: 17, Type: "xeon-3075", State: "waking", VMs: 1},
		},
		VMs: []PlacedVM{
			{VM: model.VM{ID: 100001, Type: "m1.small", Demand: model.Resources{CPU: 1, Mem: 1.7}, Start: 1440, End: 1476}, Server: 0, Start: 1440},
			{VM: model.VM{ID: 100002, Demand: model.Resources{CPU: 0.25, Mem: 0.5}, Start: 1400, End: 1500}, Server: 0, Start: 1402},
			{VM: model.VM{ID: 7, Type: "c1.medium", Demand: model.Resources{CPU: 5, Mem: 1.7}, Start: 3, End: 2000}, Server: 2, Start: 4},
		},
	}
	escaped := *full
	escaped.Policy = "min<cost>"
	escaped.Energy.Transition = 1e21
	escaped.MigrationSaved = 5e-7
	escaped.Servers = []ServerState{{ID: 1, Type: "xéon", State: "active", VMs: 1}}
	escaped.VMs = escaped.VMs[2:]
	return []*StateResponse{
		full,
		{Now: 1, Policy: "ffps", Servers: []ServerState{}},
		{Policy: "delay-aware", VMs: []PlacedVM{}},
		&escaped,
	}
}

// goldenGateStates are the vmgate bodies testdata/gate_state.golden pins:
// two shards with states nested three levels deep, and two shards of
// which one answered no state.
func goldenGateStates() []*GateStateResponse {
	st := goldenStates()
	return []*GateStateResponse{
		{
			Now: 1, Admitted: 812, Released: 96, Migrations: 4, MigrationSaved: -3.125, Residents: 3, ServersUsed: 3,
			TotalEnergy: 74180.02215123457, Digest: "9f2c", PlacementDigest: "41ab",
			Shards: []ShardState{
				{Shard: "a", Addr: "http://127.0.0.1:18091", Digest: "d1", State: st[0]},
				{Shard: "b", Addr: "http://127.0.0.1:18092", Digest: "d2", State: st[1]},
			},
		},
		{
			Digest: "e3b0",
			Shards: []ShardState{{Shard: "a", State: st[2]}, {Shard: "b"}},
		},
	}
}

// checkGolden compares the concatenated EncodeState bytes of bodies with
// path, rewriting it under -update, and decodes each body back.
func checkGolden[T any](t *testing.T, path string, bodies []*T) {
	t.Helper()
	var got []byte
	for _, v := range bodies {
		b, err := EncodeState(v)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.MarshalIndent(v, "", "  "); !bytes.Equal(b, append(want, '\n')) {
			t.Fatalf("EncodeState is not MarshalIndent plus a newline:\n got: %s\nwant: %s", b, want)
		}
		back := new(T)
		if err := json.Unmarshal(b, back); err != nil || !reflect.DeepEqual(back, v) {
			t.Fatalf("decode of the served bytes (err %v):\n got: %+v\nwant: %+v", err, back, v)
		}
		got = append(got, b...)
	}
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: served bytes moved:\n got: %s\nwant: %s", path, got, want)
	}
}

// TestStateGolden pins the bytes GET /v1/state serves, from vmserve and
// from a vmgate. The goldens were written by json.MarshalIndent alone,
// before the state had a codec of its own.
func TestStateGolden(t *testing.T) {
	checkGolden(t, "testdata/state.golden", goldenStates())
	checkGolden(t, "testdata/gate_state.golden", goldenGateStates())
}

// TestStateCodecCoversEveryField: with every field of the state types set
// — StateResponse, ServerState, model.PlacedVM, VM and Resources,
// energy.Breakdown, GateStateResponse and ShardState — the appender must
// take the body and write what json.MarshalIndent writes, and the plain
// pass must take those bytes and read back what went in. A field added to
// any of them fails here until state_codec.go knows it.
func TestStateCodecCoversEveryField(t *testing.T) {
	var st StateResponse
	var gs GateStateResponse
	n := 0
	fillFields(t, reflect.ValueOf(&st).Elem(), &n)
	fillFields(t, reflect.ValueOf(&gs).Elem(), &n)
	b, ok := appendState(nil, &st, "\n")
	if want, _ := json.MarshalIndent(&st, "", "  "); !ok || !bytes.Equal(b, want) {
		t.Fatalf("state appender (plain %v):\n got: %s\nwant: %s", ok, b, want)
	}
	if back, ok := plainState(b, &StateResponse{}); !ok || !reflect.DeepEqual(back, st) {
		t.Fatalf("plain pass (ok %v):\n got: %+v\nwant: %+v", ok, back, st)
	}
	b, ok = appendGateState(nil, &gs)
	if want, _ := json.MarshalIndent(&gs, "", "  "); !ok || !bytes.Equal(b, want) {
		t.Fatalf("gate appender (plain %v):\n got: %s\nwant: %s", ok, b, want)
	}
	var back GateStateResponse
	if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, gs) {
		t.Fatalf("gate decode (err %v):\n got: %+v\nwant: %+v", err, back, gs)
	}
}

// TestPlainStateForm: which bodies take the one pass, in each direction.
// What vmserve and the gate serve must; each way out of the plain form
// state_codec.go names must not. Whether the two paths agree on a body is
// FuzzStateCodec's question.
func TestPlainStateForm(t *testing.T) {
	st := goldenStates()
	served, _ := EncodeState(st[0])
	compact, _ := json.Marshal(st[0])
	for _, body := range []string{string(served), string(compact), " \r\n\t" + string(compact) + "\n",
		strings.Replace(string(compact), `"servers":[`, `"servers":[{"vms":0,"state":"","id":-0},`, 1),
		strings.Replace(string(compact), `"type":"m1.small",`, `"type":"",`, 1)} {
		if _, ok := plainState([]byte(body), &StateResponse{}); !ok {
			t.Errorf("not plain, but should be: %s", body)
		}
	}
	edits := [][2]string{
		{`"now":1441`, `"Now":1441`}, {`"now":1441`, `"now":1441,"now":1441`}, {`"now":1441,`, ``},
		{`"now":1441`, `"now":1441,"futureKnob":1`}, {`"now":1441`, `"now":null`}, {`"now":1441`, `"now":1441.0`},
		{`"now":1441`, `"now":1e3`}, {`"now":1441`, `"now":9223372036854775808`}, {`"now":1441`, `"now":01441`},
		{`"policy":"mincost"`, `"policy":"min\u0063ost"`}, {`"policy":"mincost"`, `"policy":null`},
		{`"policy":"mincost"`, `"policy":"min<cost"`}, {`"idleWattMinutes":9120.5`, `"idleWattMinutes":9.1205e3`},
		{`"idleWattMinutes":9120.5,`, ``}, {`"idleWattMinutes":9120.5`, `"idleWattMinutes":9e999`},
		{`"energy":{`, `"energy":{"disk":0,`}, {`"energy":{`, `"energy":null,"x":{`},
		{`"servers":[`, `"servers":[null,`}, {`"state":"active",`, ``}, {`"state":"active"`, `"state":"active","state":"waking"`},
		{`"cpu":1,`, ``}, {`"cpu":1`, `"cpu":-.5`}, {`"server":0,`, ``}, {`"vm":{`, `"vm":{"ID":1,`},
		{`"vms":[{`, `"vms":[{},{`}, {`]}`, `],}`}, {`]}`, `]}x`}, {`]}`, `]}{}`}, {`]}`, `]`},
	}
	for _, e := range edits {
		body := strings.Replace(string(compact), e[0], e[1], 1)
		if body == string(compact) {
			t.Fatalf("edit %q does not apply", e)
		}
		if _, ok := plainState([]byte(body), &StateResponse{}); ok {
			t.Errorf("plain, but should fall back: %s", body)
		}
	}
	for _, v := range []any{st[0], goldenGateStates()[0], &StateResponse{Servers: []ServerState{}, VMs: []PlacedVM{}},
		(*StateResponse)(nil), (*GateStateResponse)(nil)} {
		if !encodesPlain(v) {
			t.Errorf("%T not plain to encode", v)
		}
		b, err := EncodeState(v)
		if want, _ := json.MarshalIndent(v, "", "  "); err != nil || !bytes.Equal(b, append(want, '\n')) {
			t.Errorf("%T (err %v):\n got: %s\nwant: %s", v, err, b, want)
		}
	}
	for _, v := range []any{st[3], &StateResponse{Energy: energy.Breakdown{Run: math.NaN()}}, &StateResponse{TotalEnergy: math.Inf(-1)},
		&StateResponse{MigrationSaved: 9e-7}, &StateResponse{Servers: []ServerState{{State: "a&b"}}},
		&GateStateResponse{Digest: "\x7f"}, &GateStateResponse{Shards: []ShardState{{State: st[3]}}}, &struct{}{}, nil} {
		b, err := EncodeState(v)
		want, werr := json.MarshalIndent(v, "", "  ")
		if fmt.Sprint(err) != fmt.Sprint(werr) || err == nil && !bytes.Equal(b, append(want, '\n')) {
			t.Errorf("%T fallback (err %v, want %v):\n got: %s\nwant: %s", v, err, werr, b, want)
		}
		if encodesPlain(v) {
			t.Errorf("%+v took the plain encoder", v)
		}
	}
}

// encodesPlain reports whether EncodeState writes v through the appender.
func encodesPlain(v any) (ok bool) {
	switch v := v.(type) {
	case *StateResponse:
		_, ok = appendState(nil, v, "\n")
	case *GateStateResponse:
		_, ok = appendGateState(nil, v)
	}
	return ok
}

// TestStateErrorText: a body that is not plain fails with the text it had
// before StateResponse had a method, naming StateResponse, not the alias
// its fallback decodes into.
func TestStateErrorText(t *testing.T) {
	for body, want := range map[string]string{
		`{"now":"x"}`: "json: cannot unmarshal string into Go struct field StateResponse.now of type int",
		`[1]`:         "json: cannot unmarshal array into Go value of type api.StateResponse",
		`{"now":1`:    "unexpected end of JSON input",
	} {
		var st StateResponse
		if err := json.Unmarshal([]byte(body), &st); fmt.Sprint(err) != want {
			t.Errorf("%s: got %v, want %s", body, err, want)
		}
	}
}

// TestUnmarshalDirect: Unmarshal, which hands a *StateResponse the body
// without encoding/json's two scans ahead of UnmarshalJSON, reads what
// json.Unmarshal reads, value and error text, over a zero and a full
// receiver: every body state.golden holds, and planted ones, with
// surrounding whitespace, trailing garbage, null, an empty body, an empty
// string, a truncated body and type errors. A *GateStateResponse, which
// has no method, goes to json.Unmarshal itself.
func TestUnmarshalDirect(t *testing.T) {
	golden, err := os.ReadFile("testdata/state.golden")
	if err != nil {
		t.Fatal(err)
	}
	var bodies []string
	for dec := json.NewDecoder(bytes.NewReader(golden)); dec.More(); {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(raw)+"\n")
	}
	if len(bodies) != len(goldenStates()) {
		t.Fatalf("state.golden holds %d bodies, want %d", len(bodies), len(goldenStates()))
	}
	first := bodies[0]
	bodies = append(bodies, " \t\n"+first+" \n", first+"x", first+"{}", "null", " null ", "", `""`,
		first[:len(first)/2], `{"now":"x"}`, `{"servers":[{"id":1,"state":7}]}`, `[1]`)
	for _, body := range bodies {
		for i, base := range []*StateResponse{{}, goldenStates()[0]} {
			got, want := cloneState(base), cloneState(base)
			err, werr := Unmarshal([]byte(body), got), json.Unmarshal([]byte(body), want)
			if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
				t.Errorf("%.40q over receiver %d: err %v, want %v\n got: %+v\nwant: %+v", body, i, err, werr, got, want)
			}
		}
	}
	var gs GateStateResponse
	if err := Unmarshal([]byte(`{"digest":"d","shards":[{"shard":"a","state":`+first+`}]}`), &gs); err != nil || gs.Shards[0].State.Now != goldenStates()[0].Now {
		t.Errorf("gate body: err %v, %+v", err, gs)
	}
}

// TestStateDecodeOverReceiver: over a receiver that is not zero, the plain
// pass reads what json.Unmarshal into the alias reads, an element without
// a type keeping the type the receiver's slice holds at its index, within
// its capacity and beyond its length.
func TestStateDecodeOverReceiver(t *testing.T) {
	untyped := goldenStates()[0]
	for i := range untyped.Servers {
		untyped.Servers[i].Type = ""
	}
	for i := range untyped.VMs {
		untyped.VMs[i].VM.Type = ""
	}
	body, _ := json.Marshal(untyped)
	base := goldenStates()[0]
	base.Servers, base.VMs = base.Servers[:1], base.VMs[:1]
	got, want := cloneState(base), cloneState(base)
	if _, ok := plainState(body, got); !ok {
		t.Fatalf("not plain: %s", body)
	}
	if err := json.Unmarshal(body, got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, (*stateAlias)(want)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.Servers[2].Type != "xeon-3075" || got.VMs[2].VM.Type != "c1.medium" {
		t.Fatalf("decode over a receiver:\n got: %+v\nwant: %+v", got, want)
	}
}

// cloneState copies st with lists of their own, each with st's capacity
// and whatever st's held beyond its length: what encoding/json decodes
// over, so a receiver's copies must not share it.
func cloneState(st *StateResponse) *StateResponse {
	c := *st
	c.Servers = cloneCap(st.Servers)
	c.VMs = cloneCap(st.VMs)
	return &c
}

func cloneCap[T any](s []T) []T {
	if s == nil {
		return nil
	}
	c := make([]T, len(s), cap(s))
	copy(c[:cap(s)], s[:cap(s)])
	return c
}

// poison turns one field of st, chosen by sel, into a value the plain
// encoder must refuse (NaN, ±Inf, an exponent, a byte the encoder escapes),
// or leaves st alone.
func poison(st *StateResponse, sel int) {
	switch sel % 8 {
	case 1:
		st.MigrationSaved = math.NaN()
	case 2:
		st.Energy.Idle = math.Inf(1)
	case 3:
		st.TotalEnergy = -1e21
	case 4:
		st.Energy.Run = 1e-7
	case 5:
		st.Policy += "<&>"
	case 6:
		if len(st.Servers) > 0 {
			st.Servers[0].Type = "\u2028"
		}
	case 7:
		if len(st.VMs) > 0 {
			st.VMs[0].VM.Demand.Mem = 5e-324
		}
	}
}

// FuzzStateCodec holds the state codec to encoding/json, its reference.
// Decoding: json.Unmarshal into a StateResponse (through its method) and
// a direct UnmarshalJSON against json.Unmarshal into the alias, value and
// error text, over a zero receiver and over one holding a state whose
// lists have spare capacity. Encoding: EncodeState of what decoded, with
// one field poisoned by the input's length, and of a gate body nesting
// it, against json.MarshalIndent, bytes or error. A finding is fixed by
// narrowing the plain form, never the reference.
func FuzzStateCodec(f *testing.F) {
	// Compact seeds: the worker minimizes each new input, which on the
	// served (indented) bodies takes most of a short run.
	for _, st := range goldenStates() {
		b, _ := json.Marshal(st)
		f.Add(b)
	}
	b, _ := EncodeState(goldenStates()[1])
	f.Add(b)
	full := goldenStates()[0]
	full.Servers, full.VMs = full.Servers[:1], full.VMs[:2]
	f.Fuzz(func(t *testing.T, data []byte) {
		var decoded *StateResponse
		for i, base := range []*StateResponse{{}, full} {
			got, direct, want := cloneState(base), cloneState(base), cloneState(base)
			err := json.Unmarshal(data, got)
			derr := direct.UnmarshalJSON(data)
			werr := json.Unmarshal(data, (*stateAlias)(want))
			wantText := strings.ReplaceAll(fmt.Sprint(werr), "stateAlias", "StateResponse")
			if fmt.Sprint(err) != wantText || !reflect.DeepEqual(got, want) {
				t.Fatalf("json.Unmarshal over receiver %d: err %v, want %s\n got: %+v\nwant: %+v", i, err, wantText, got, want)
			}
			if fmt.Sprint(derr) != wantText || !reflect.DeepEqual(direct, want) {
				t.Fatalf("UnmarshalJSON over receiver %d: err %v, want %s\n got: %+v\nwant: %+v", i, derr, wantText, direct, want)
			}
			if i == 0 && werr == nil {
				decoded = got
			}
		}
		if decoded == nil {
			return
		}
		poison(decoded, len(data))
		for _, v := range []any{decoded, &GateStateResponse{Digest: "d", Shards: []ShardState{{Shard: "a", State: decoded}, {Shard: "b"}}}} {
			b, err := EncodeState(v)
			want, werr := json.MarshalIndent(v, "", "  ")
			if fmt.Sprint(err) != fmt.Sprint(werr) || err == nil && !bytes.Equal(b, append(want, '\n')) {
				t.Fatalf("EncodeState(%T) (err %v, want %v):\n got: %s\nwant: %s", v, err, werr, b, want)
			}
		}
	})
}

// benchState is a serve-batch-sized state drawn from a fixed seed: 512
// servers of two types, 716 residents of the Table I mix, energies with
// every digit a float64 has.
func benchState() *StateResponse {
	r := rand.New(rand.NewPCG(7, 51))
	vmTypes := []struct {
		name     string
		cpu, mem float64
	}{{"m1.small", 1, 1.7}, {"m1.large", 4, 7.5}, {"m1.xlarge", 8, 15}, {"c1.medium", 5, 1.7}, {"c1.xlarge", 20, 7}, {"m2.xlarge", 6.5, 17.1}}
	states := []string{"active", "power-saving", "power-saving", "waking"}
	st := &StateResponse{
		Now: 1441, Policy: "mincost", IdleTimeout: 3, Admitted: 5210, Released: 4494, Migrations: 12,
		MigrationSaved: r.Float64() * 1e4, Transitions: 388, ServersUsed: 301,
		Energy:      energy.Breakdown{Run: r.Float64() * 1e7, Idle: r.Float64() * 1e6, Transition: r.Float64() * 1e5},
		TotalEnergy: r.Float64() * 1e7, TotalStartDelay: 96, MaxStartDelay: 2,
		Servers: make([]ServerState, 512),
		VMs:     make([]PlacedVM, 716),
	}
	for i := range st.Servers {
		st.Servers[i] = ServerState{ID: i + 1, Type: []string{"xeon-3040", "xeon-3075"}[i%2], State: states[r.IntN(len(states))], VMs: r.IntN(4)}
	}
	for i := range st.VMs {
		t := vmTypes[r.IntN(len(vmTypes))]
		start := 1 + r.IntN(1440)
		st.VMs[i] = PlacedVM{
			VM:     model.VM{ID: 100000 + i, Type: t.name, Demand: model.Resources{CPU: t.cpu, Mem: t.mem}, Start: start, End: start + r.IntN(600)},
			Server: r.IntN(512), Start: start + r.IntN(2),
		}
	}
	return st
}

// BenchmarkStateCodec: one serve-batch-sized GET /v1/state body each way.
// encode/reference is what EncodeState was (json.MarshalIndent and a
// newline), encode/plain what it is; decode/reference is json.Unmarshal
// as it was (into the alias), decode/plain a direct UnmarshalJSON (the one
// pass alone, as Unmarshal runs it for the gate and vmload), and
// unmarshal/plain json.Unmarshal through the method, as the benchmark's
// client decodes, with encoding/json's validity scan in front of the pass.
func BenchmarkStateCodec(b *testing.B) {
	st := benchState()
	body, err := EncodeState(st)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, op func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("encode/reference", func() error {
		out, err := json.MarshalIndent(st, "", "  ")
		_ = append(out, '\n')
		return err
	})
	run("encode/plain", func() error {
		_, err := EncodeState(st)
		return err
	})
	run("decode/reference", func() error {
		var v StateResponse
		return json.Unmarshal(body, (*stateAlias)(&v))
	})
	run("decode/plain", func() error {
		var v StateResponse
		return v.UnmarshalJSON(body)
	})
	run("unmarshal/plain", func() error {
		var v StateResponse
		return json.Unmarshal(body, &v)
	})
}
