package online

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"vmalloc/internal/model"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this build's outcomes")

const movesGoldenPath = "testdata/moves.golden"

// moveCoverage counts the cases the scripts must reach for the golden to
// pin every way onto and off a live server.
type moveCoverage struct {
	migrateTo     map[State]int // accepted migrations by target state
	adoptPushed   int           // accepted adoptions whose handoff a wake-up pushed
	adoptFuture   int           // accepted adoptions of a VM that has not started
	adoptRefused  int           // adoptions refused for capacity
	migrateRefCap int           // migrations refused for capacity
	exceeds       int           // capacity refusals of a demand larger than the server
}

func (c *moveCoverage) refused(reason string) {
	if reason == "vm exceeds server capacity" {
		c.exceeds++
	}
}

// fitsWindow is exactFits over [from, end] for v's demand.
func fitsWindow(fv *FleetView, i int, v model.VM, from, end int) bool {
	w := v
	w.Start, w.End = from, end
	return exactFits(fv, i, w, from)
}

// movesScript runs one seeded op script on a small fleet and writes a line
// per op — the op, its result or refusal, and EnergyAt(now) bit for bit —
// then the SHA-256 of the final snapshot's JSON. Every Commit, Migrate
// and Adopt whose other preconditions hold is checked against exactFits
// over the window it would host.
func movesScript(t *testing.T, seed int64, out *strings.Builder, cov *moveCoverage) {
	rng := rand.New(rand.NewSource(seed))
	cpus := []float64{0.5, 1, 1.7, 2, 3.25, 3.75, 5} // 5 exceeds a 4-CU server outright
	mems := []float64{0.6, 1.7, 2, 3.75, 7.5}
	servers := make([]model.Server, 5)
	for i := range servers {
		servers[i] = srv(i+1, []float64{4, 6.5, 8}[rng.Intn(3)], []float64{7.5, 15, 17.1}[rng.Intn(3)],
			80+float64(rng.Intn(40)), 180+float64(rng.Intn(80)), float64(rng.Intn(4)))
	}
	timeout := []int{-1, 0, 2}[seed%3]
	fl := NewFleet(servers, timeout)
	fl.AdvanceTo(1)

	var freed []int
	nextID := 1
	newVM := func(start int) model.VM {
		id := nextID
		if len(freed) > 0 && rng.Intn(2) == 0 {
			id, freed = freed[0], freed[1:]
		} else {
			nextID++
		}
		return vm(id, start, start+rng.Intn(20), cpus[rng.Intn(len(cpus))], mems[rng.Intn(len(mems))])
	}
	fail := func(op int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d op %d: "+format, append([]any{seed, op}, args...)...)
	}
	result := func(err error, ok string) string {
		if err != nil {
			return err.Error()
		}
		return ok
	}

	for op := 0; op < 80; op++ {
		now := fl.Now()
		fv := fl.View()
		var line string
		switch r := rng.Intn(100); {
		case r < 30:
			v := newVM(now + rng.Intn(4))
			i := rng.Intn(len(servers))
			_, dup := fl.Resident(v.ID)
			start := fv.StartTime(i, v)
			fits := exactFits(fv, i, v, start)
			got, err := fl.Commit(i, v)
			if !dup && (err == nil) != fits {
				fail(op, "commit vm %+v on %d: err %v, exact check %t", v, i, err, fits)
			}
			line = fmt.Sprintf("commit vm %d [%d,%d] cpu %g mem %g on %d: %s", v.ID, v.Start, v.End, v.Demand.CPU, v.Demand.Mem, i,
				result(err, fmt.Sprintf("start %d", got)))
		case r < 42:
			rs := fl.Residents()
			id := nextID + 100 // a release of a VM that is not resident
			if len(rs) > 0 && rng.Intn(8) != 0 {
				id = rs[rng.Intn(len(rs))].VM.ID
			}
			_, err := fl.Release(id)
			if err == nil {
				freed = append(freed, id)
			}
			line = fmt.Sprintf("release vm %d: %s", id, result(err, "ok"))
		case r < 65:
			rs := fl.Residents()
			if len(rs) == 0 {
				continue
			}
			p := rs[rng.Intn(len(rs))]
			to := rng.Intn(len(servers))
			state := fv.StateOf(to)
			handoff, end := max(p.Start, now+1), p.End()
			row := fv.rows[to]
			woken := state == Active || state == Waking && row.wakeDone <= handoff || state == PowerSaving && now+row.wake <= handoff
			fits := handoff <= end && fitsWindow(fv, to, p.VM, handoff, end)
			_, got, err := fl.Migrate(p.VM.ID, to)
			var me *MigrateError
			if err != nil && !errors.As(err, &me) {
				fail(op, "migrate vm %d to %d: err %v, want a *MigrateError", p.VM.ID, to, err)
			}
			switch {
			case to == p.Server || handoff > end || !woken:
				if err == nil {
					fail(op, "migrate vm %d to %d: accepted, want a refusal", p.VM.ID, to)
				}
			case (err == nil) != fits:
				fail(op, "migrate vm %d to %d over [%d,%d]: err %v, exact check %t", p.VM.ID, to, handoff, end, err, fits)
			case err == nil:
				cov.migrateTo[state]++
				if got != handoff {
					fail(op, "migrate vm %d: handoff %d, want %d", p.VM.ID, got, handoff)
				}
			default:
				cov.migrateRefCap++
				cov.refused(me.Reason)
			}
			line = fmt.Sprintf("migrate vm %d %d->%d (%v): %s", p.VM.ID, p.Server, to, state, result(err, fmt.Sprintf("handoff %d", got)))
		case r < 85:
			v := newVM(max(1, now-rng.Intn(6)) + rng.Intn(8))
			if rs := fl.Residents(); len(rs) > 0 && rng.Intn(10) == 0 {
				v.ID = rs[0].VM.ID // already resident here
			}
			actual := v.Start + rng.Intn(3)
			if rng.Intn(12) == 0 {
				actual = v.Start - 1
			}
			to := rng.Intn(len(servers))
			state := fv.StateOf(to)
			row := fv.rows[to]
			end := actual + v.Duration() - 1
			handoff := max(actual, now+1)
			switch state {
			case Waking:
				handoff = max(handoff, row.wakeDone)
			case PowerSaving:
				handoff = max(handoff, now+row.wake)
			}
			_, dup := fl.Resident(v.ID)
			fits := handoff <= end && fitsWindow(fv, to, v, handoff, end)
			got, err := fl.Adopt(to, v, actual)
			var ae *AdoptError
			if err != nil && !errors.As(err, &ae) {
				fail(op, "adopt vm %d onto %d: err %v, want an *AdoptError", v.ID, to, err)
			}
			switch {
			case dup || actual < v.Start || handoff > end:
				if err == nil {
					fail(op, "adopt vm %d onto %d: accepted, want a refusal", v.ID, to)
				}
			case (err == nil) != fits:
				fail(op, "adopt vm %d onto %d over [%d,%d]: err %v, exact check %t", v.ID, to, handoff, end, err, fits)
			case err == nil:
				if got != handoff {
					fail(op, "adopt vm %d: handoff %d, want %d", v.ID, got, handoff)
				}
				if handoff > max(actual, now+1) {
					cov.adoptPushed++
				}
				if actual > now {
					cov.adoptFuture++
				}
			default:
				cov.adoptRefused++
				cov.refused(ae.Reason)
			}
			line = fmt.Sprintf("adopt vm %d [%d,%d] at %d cpu %g mem %g onto %d (%v): %s", v.ID, v.Start, v.End, actual,
				v.Demand.CPU, v.Demand.Mem, to, state, result(err, fmt.Sprintf("handoff %d", got)))
		default:
			fl.AdvanceTo(now + 1 + rng.Intn(4))
			line = fmt.Sprintf("advance to %d", fl.Now())
		}
		e := fl.EnergyAt(fl.Now())
		fmt.Fprintf(out, "%d %d t=%d %s | %x %x %x\n", seed, op, fl.Now(), line, e.Run, e.Idle, e.Transition)
	}
	snap, err := json.Marshal(fl.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(out, "%d snapshot %x\n", seed, sha256.Sum256(snap))
}

// TestFleetMovesGolden pins every live placement mutation — Commit,
// Release, Migrate and Adopt, on targets that are active, waking and
// asleep, with idle timeouts −1, 0 and 2 — by its result, its energy
// bits after each op and the final snapshot's hash (-update rewrites the
// golden, only when a move is meant to change).
func TestFleetMovesGolden(t *testing.T) {
	var got strings.Builder
	cov := moveCoverage{migrateTo: map[State]int{}}
	for seed := int64(1); seed <= 8; seed++ {
		movesScript(t, seed, &got, &cov)
	}
	for _, s := range []State{Active, Waking, PowerSaving} {
		if cov.migrateTo[s] == 0 {
			t.Errorf("no accepted migration onto a %v target", s)
		}
	}
	if cov.adoptPushed == 0 || cov.adoptFuture == 0 || cov.adoptRefused == 0 || cov.migrateRefCap == 0 || cov.exceeds == 0 {
		t.Errorf("scripts miss a case: %+v", cov)
	}
	if *updateGolden {
		if err := os.WriteFile(movesGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(movesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		w, g := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
		for k := 0; k < len(w) && k < len(g); k++ {
			if w[k] != g[k] {
				t.Fatalf("moves differ from %s at line %d:\nwant %s\ngot  %s", movesGoldenPath, k+1, w[k], g[k])
			}
		}
		t.Fatalf("moves differ from %s: %d lines, want %d", movesGoldenPath, len(g), len(w))
	}
}
