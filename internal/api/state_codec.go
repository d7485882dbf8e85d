package api

import (
	"encoding/json"
	"reflect"
	"strconv"
)

// The plain-form codec for the other hot body, GET /v1/state: vmserve
// encodes it on every read, and the gate, vmload and every other Go client
// decode it. Like the admit pair's (admit_codec.go) it is not a second wire
// format: it writes and reads a subset of what encoding/json does for these
// types, byte for byte, and hands the rest to encoding/json, the reference.
// EncodeState writes a *StateResponse or *GateStateResponse through
// appendState; a StateResponse decodes through its UnmarshalJSON, so
// every json.Unmarshal of one, bare or nested in a GateStateResponse,
// takes the one pass without its caller knowing.

// stateAlias is StateResponse without its method: what encoding/json
// decodes a body into when the body is not plain.
type stateAlias StateResponse

// member opens a member of an object in json.MarshalIndent(v, "", "  ")'s
// layout: sep ('{' for the first, else ','), the line break and indent
// ind, and the quoted key.
func member(b []byte, sep byte, ind, key string) []byte {
	return append(append(append(append(append(b, sep), ind...), '"'), key...), `": `...)
}

func intMember(b []byte, sep byte, ind, key string, v int) []byte {
	return strconv.AppendInt(member(b, sep, ind, key), int64(v), 10)
}

func floatMember(b []byte, sep byte, ind, key string, v float64) []byte {
	return strconv.AppendFloat(member(b, sep, ind, key), v, 'f', -1, 64)
}

func strMember(b []byte, sep byte, ind, key, v string) []byte {
	return append(append(append(member(b, sep, ind, key), '"'), v...), '"')
}

// item opens element i of a list on a line of its own at ind.
func item(b []byte, i int, ind string) []byte {
	sep := byte(',')
	if i == 0 {
		sep = '['
	}
	return append(append(b, sep), ind...)
}

// endList closes a list of n elements whose key is at ind; with none it
// is null for a nil slice and [] for an empty one.
func endList(b []byte, n int, isNil bool, ind string) []byte {
	switch {
	case n > 0:
		return append(append(b, ind...), ']')
	case isNil:
		return append(b, "null"...)
	}
	return append(b, "[]"...)
}

// appendState appends what json.MarshalIndent writes for st where its
// opening brace stands, nl being the line break and indent of that line,
// and reports whether that is all it writes: false when a string holds a
// byte the encoder would escape or a float is not plainFloat.
func appendState(b []byte, st *StateResponse, nl string) ([]byte, bool) {
	if st == nil {
		return append(b, "null"...), true
	}
	ok := plainString(st.Policy) && plainFloat(st.MigrationSaved) && plainFloat(st.TotalEnergy) &&
		plainFloat(st.Energy.Run) && plainFloat(st.Energy.Idle) && plainFloat(st.Energy.Transition)
	ind := nl + "          " // five levels: a resident's demand is the deepest
	i1, i2, i3, i4, i5 := ind[:len(nl)+2], ind[:len(nl)+4], ind[:len(nl)+6], ind[:len(nl)+8], ind
	b = intMember(b, '{', i1, "now", st.Now)
	b = strMember(b, ',', i1, "policy", st.Policy)
	b = intMember(b, ',', i1, "idleTimeoutMinutes", st.IdleTimeout)
	b = intMember(b, ',', i1, "admitted", st.Admitted)
	b = intMember(b, ',', i1, "released", st.Released)
	b = intMember(b, ',', i1, "migrations", st.Migrations)
	b = floatMember(b, ',', i1, "migrationSavedWattMinutes", st.MigrationSaved)
	b = intMember(b, ',', i1, "transitions", st.Transitions)
	b = intMember(b, ',', i1, "serversUsed", st.ServersUsed)
	b = member(b, ',', i1, "energy")
	b = floatMember(b, '{', i2, "runWattMinutes", st.Energy.Run)
	b = floatMember(b, ',', i2, "idleWattMinutes", st.Energy.Idle)
	b = floatMember(b, ',', i2, "transitionWattMinutes", st.Energy.Transition)
	b = append(append(b, i1...), '}')
	b = floatMember(b, ',', i1, "totalEnergyWattMinutes", st.TotalEnergy)
	b = intMember(b, ',', i1, "totalStartDelayMinutes", st.TotalStartDelay)
	b = intMember(b, ',', i1, "maxStartDelayMinutes", st.MaxStartDelay)
	b = member(b, ',', i1, "servers")
	for i := range st.Servers {
		s := &st.Servers[i]
		ok = ok && plainString(s.Type) && plainString(s.State)
		b = intMember(item(b, i, i2), '{', i3, "id", s.ID)
		if s.Type != "" {
			b = strMember(b, ',', i3, "type", s.Type)
		}
		b = strMember(b, ',', i3, "state", s.State)
		b = intMember(b, ',', i3, "vms", s.VMs)
		b = append(append(b, i2...), '}')
	}
	b = endList(b, len(st.Servers), st.Servers == nil, i1)
	b = member(b, ',', i1, "vms")
	for i := range st.VMs {
		v := &st.VMs[i]
		ok = ok && plainString(v.VM.Type) && plainFloat(v.VM.Demand.CPU) && plainFloat(v.VM.Demand.Mem)
		b = member(item(b, i, i2), '{', i3, "vm")
		b = intMember(b, '{', i4, "id", v.VM.ID)
		if v.VM.Type != "" {
			b = strMember(b, ',', i4, "type", v.VM.Type)
		}
		b = member(b, ',', i4, "demand")
		b = floatMember(b, '{', i5, "cpu", v.VM.Demand.CPU)
		b = floatMember(b, ',', i5, "mem", v.VM.Demand.Mem)
		b = append(append(b, i4...), '}')
		b = intMember(b, ',', i4, "start", v.VM.Start)
		b = intMember(b, ',', i4, "end", v.VM.End)
		b = append(append(b, i3...), '}')
		b = intMember(b, ',', i3, "server", v.Server)
		b = intMember(b, ',', i3, "start", v.Start)
		b = append(append(b, i2...), '}')
	}
	b = endList(b, len(st.VMs), st.VMs == nil, i1)
	return append(append(b, nl...), '}'), ok
}

// appendGateState is appendState for a vmgate's state body, each shard's
// state nested in it.
func appendGateState(b []byte, gs *GateStateResponse) ([]byte, bool) {
	if gs == nil {
		return append(b, "null"...), true
	}
	ok := plainFloat(gs.MigrationSaved) && plainFloat(gs.TotalEnergy) && plainString(gs.Digest) && plainString(gs.PlacementDigest)
	const i1, i2, i3 = "\n  ", "\n    ", "\n      "
	b = intMember(b, '{', i1, "now", gs.Now)
	b = intMember(b, ',', i1, "admitted", gs.Admitted)
	b = intMember(b, ',', i1, "released", gs.Released)
	b = intMember(b, ',', i1, "migrations", gs.Migrations)
	b = floatMember(b, ',', i1, "migrationSavedWattMinutes", gs.MigrationSaved)
	b = intMember(b, ',', i1, "residents", gs.Residents)
	b = intMember(b, ',', i1, "serversUsed", gs.ServersUsed)
	b = floatMember(b, ',', i1, "totalEnergyWattMinutes", gs.TotalEnergy)
	b = strMember(b, ',', i1, "digest", gs.Digest)
	if gs.PlacementDigest != "" {
		b = strMember(b, ',', i1, "placementDigest", gs.PlacementDigest)
	}
	b = member(b, ',', i1, "shards")
	for i := range gs.Shards {
		s := &gs.Shards[i]
		ok = ok && plainString(s.Shard) && plainString(s.Addr) && plainString(s.Digest)
		b = strMember(item(b, i, i2), '{', i3, "shard", s.Shard)
		b = strMember(b, ',', i3, "addr", s.Addr)
		b = strMember(b, ',', i3, "digest", s.Digest)
		var plainState bool
		b, plainState = appendState(member(b, ',', i3, "state"), s.State, i3)
		ok = ok && plainState
		b = append(append(b, i2...), '}')
	}
	b = endList(b, len(gs.Shards), gs.Shards == nil, i1)
	return append(b, "\n}"...), ok
}

// stateSize is a capacity for st's body: a little over what a server and
// a resident take at the gate's depth.
func stateSize(st *StateResponse) int {
	if st == nil {
		return 4
	}
	return 1024 + 128*len(st.Servers) + 320*len(st.VMs)
}

// UnmarshalJSON reads a state body in one pass when it is in the plain
// form — every key of every object spelled exactly and met once (only an
// empty type may be absent, as the encoder omits it), strings without an
// escape, numbers without an exponent, no null — and hands any other body
// to encoding/json, value and error, as if StateResponse had no method.
// A plain pass sets every field or, failing, none. Like encoding/json's,
// it decodes element i of Servers or VMs over what the receiver's slice
// holds at i, within its capacity, so an element without a type keeps
// the type held there.
func (st *StateResponse) UnmarshalJSON(data []byte) error {
	if out, ok := plainState(data, st); ok {
		*st = out
		return nil
	}
	return unalias(json.Unmarshal(data, (*stateAlias)(st)))
}

// Unmarshal is json.Unmarshal minus its validity scan and skip ahead of
// a *StateResponse's UnmarshalJSON, which gets data itself: it checks the
// whole body, so that is json.Unmarshal's value and error. Any other v,
// another json.Unmarshaler among them, goes to json.Unmarshal.
func Unmarshal(data []byte, v any) error {
	if st, ok := v.(*StateResponse); ok {
		return st.UnmarshalJSON(data)
	}
	return json.Unmarshal(data, v)
}

// plainState is UnmarshalJSON's one pass: data read over the receiver
// old, or false when data is not one plain state object and nothing else.
func plainState(data []byte, old *StateResponse) (StateResponse, bool) {
	p := plain{b: data}
	var out StateResponse
	var names Interner
	ok := p.state(&out, old, &names) && p.peek() == 0 && p.i == len(data)
	return out, ok
}

// unalias makes encoding/json's error for a body that is not plain name
// StateResponse where it names stateAlias, the text it had before the
// type had a method.
func unalias(err error) error {
	if e, ok := err.(*json.UnmarshalTypeError); ok {
		if e.Struct == "stateAlias" {
			e.Struct = "StateResponse"
		}
		if e.Type == reflect.TypeFor[stateAlias]() {
			e.Type = reflect.TypeFor[StateResponse]()
		}
	}
	return err
}

// state consumes one StateResponse object into st; old is the receiver,
// whose lists' elements the decoded ones start from.
func (p *plain) state(st, old *StateResponse, names *Interner) bool {
	return p.object(1<<15-1, func(key []byte) (uint, bool) {
		switch string(key) {
		case "now":
			return 1 << 0, p.int(&st.Now)
		case "policy":
			return 1 << 1, p.name(&st.Policy, names)
		case "idleTimeoutMinutes":
			return 1 << 2, p.int(&st.IdleTimeout)
		case "admitted":
			return 1 << 3, p.int(&st.Admitted)
		case "released":
			return 1 << 4, p.int(&st.Released)
		case "migrations":
			return 1 << 5, p.int(&st.Migrations)
		case "migrationSavedWattMinutes":
			return 1 << 6, p.float(&st.MigrationSaved)
		case "transitions":
			return 1 << 7, p.int(&st.Transitions)
		case "serversUsed":
			return 1 << 8, p.int(&st.ServersUsed)
		case "energy":
			return 1 << 9, p.object(7, func(key []byte) (uint, bool) {
				switch string(key) {
				case "runWattMinutes":
					return 1, p.float(&st.Energy.Run)
				case "idleWattMinutes":
					return 2, p.float(&st.Energy.Idle)
				case "transitionWattMinutes":
					return 4, p.float(&st.Energy.Transition)
				}
				return 0, false
			})
		case "totalEnergyWattMinutes":
			return 1 << 10, p.float(&st.TotalEnergy)
		case "totalStartDelayMinutes":
			return 1 << 11, p.int(&st.TotalStartDelay)
		case "maxStartDelayMinutes":
			return 1 << 12, p.int(&st.MaxStartDelay)
		case "servers":
			st.Servers = []ServerState{}
			return 1 << 13, p.array(func(i int) bool {
				st.Servers = append(st.Servers, at(old.Servers, i))
				return p.server(&st.Servers[i], names)
			})
		case "vms":
			st.VMs = []PlacedVM{}
			return 1 << 14, p.array(func(i int) bool {
				st.VMs = append(st.VMs, at(old.VMs, i))
				return p.placed(&st.VMs[i], names)
			})
		}
		return 0, false
	})
}

// at is what encoding/json decodes element i of a JSON list over when s
// is the slice it decodes into: s's own element within its capacity, else
// a zero one.
func at[T any](s []T, i int) (v T) {
	if i < cap(s) {
		v = s[:cap(s)][i]
	}
	return v
}

func (p *plain) server(s *ServerState, names *Interner) bool {
	return p.object(1|4|8, func(key []byte) (uint, bool) {
		switch string(key) {
		case "id":
			return 1, p.int(&s.ID)
		case "type":
			return 2, p.name(&s.Type, names)
		case "state":
			return 4, p.name(&s.State, names)
		case "vms":
			return 8, p.int(&s.VMs)
		}
		return 0, false
	})
}

func (p *plain) placed(v *PlacedVM, names *Interner) bool {
	return p.object(7, func(key []byte) (uint, bool) {
		switch string(key) {
		case "vm":
			return 1, p.object(1|4|8|16, func(key []byte) (uint, bool) {
				switch string(key) {
				case "id":
					return 1, p.int(&v.VM.ID)
				case "type":
					return 2, p.name(&v.VM.Type, names)
				case "demand":
					return 4, p.object(3, func(key []byte) (uint, bool) {
						switch string(key) {
						case "cpu":
							return 1, p.float(&v.VM.Demand.CPU)
						case "mem":
							return 2, p.float(&v.VM.Demand.Mem)
						}
						return 0, false
					})
				case "start":
					return 8, p.int(&v.VM.Start)
				case "end":
					return 16, p.int(&v.VM.End)
				}
				return 0, false
			})
		case "server":
			return 2, p.int(&v.Server)
		case "start":
			return 4, p.int(&v.Start)
		}
		return 0, false
	})
}

// array consumes [element,...]; elem consumes element i.
func (p *plain) array(elem func(i int) bool) bool {
	if !p.eat('[') {
		return false
	}
	if p.eat(']') {
		return true
	}
	for i := 0; elem(i); i++ {
		if p.eat(']') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
	return false
}

// name consumes a plain string into *v, interned in names.
func (p *plain) name(v *string, names *Interner) bool {
	s := p.str()
	*v = names.Intern(s)
	return s != nil
}

// Interner hands out one string per distinct short name a decode reads:
// the VM types of a journal replay, the server states and types of a
// state body. Its size is fixed: once full, or for a longer string, it
// allocates as if there were no table, so input of ever-new names cannot
// grow it.
type Interner struct {
	names [16]string
	n     int
}

// maxInternLen bounds the strings an Interner keeps; Table I's longest
// type name is 18 bytes.
const maxInternLen = 32

// Intern returns b as a string, the table's copy if it has one.
func (t *Interner) Intern(b []byte) string {
	for _, s := range t.names[:t.n] {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	if t.n < len(t.names) && len(b) <= maxInternLen {
		t.names[t.n] = s
		t.n++
	}
	return s
}
