package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"vmalloc"
)

// runOperatorRestart is the operator's path. Set-up replays a fragmenting
// admit/release schedule into a journal that never snapshots, records the
// state digest and SIGKILLs the daemon. Each repetition then copies the
// directory, starts a vmserve on the copy, waits for /healthz, compares the
// digest and every resident with what was acknowledged before the kill,
// SIGKILLs again; the first three
// repetitions run a consolidation pass and drain the fleet before the kill.
func runOperatorRestart(env *runEnv) (*result, error) {
	res := newResult(wlOperatorRestart, env)
	t0 := time.Now()
	// Standard-class VMs at ≈100 a minute, ten minutes long on average: the
	// fleet fills to ≈40% CPU, then the clock runs on for one mean lifetime
	// so most VMs depart and the survivors are scattered thin — the state a
	// consolidation pass exists for.
	inst, err := vmalloc.Generate(vmalloc.WorkloadSpec{
		NumVMs: 30000 / env.scale, MeanInterArrival: 0.01, MeanLength: 10,
		Classes: []vmalloc.VMClass{vmalloc.ClassStandard},
	}, vmalloc.FleetSpec{NumServers: 256, TransitionTime: 2}, env.seed)
	if err != nil {
		return nil, err
	}
	sch := buildSchedule(inst, 0.1, env.seed)
	// The crash comes one mean lifetime after the last arrival; releases
	// scheduled later never happen.
	crashAt := inst.VMs[len(inst.VMs)-1].Start + 10
	sch.truncate(crashAt - 1)
	seedDir := filepath.Join(env.tmp, "seed-journal")
	open := func(dir string) (*daemon, error) {
		return startServe(env, "serve", inst.Servers, serveOpts{journal: dir, snapshotEvery: -1})
	}

	// Populate. Flushes are off only here: the bytes reach the file either
	// way, and a SIGKILL (unlike power loss) keeps what was written.
	pop, err := startServe(env, "serve", inst.Servers, serveOpts{journal: seedDir, snapshotEvery: -1, noFsync: true})
	if err != nil {
		return nil, err
	}
	defer func() { pop.kill() }()
	c := newClient(pop.url, env.conns, nil)
	led := newLedger([][]vmalloc.Server{inst.Servers})
	s := &session{ctx: env.ctx, c: c, led: led, rec: &recorder{}, rd: &round{}, conns: env.conns}
	for i := range sch.steps {
		if err := env.ctx.Err(); err != nil {
			return nil, err
		}
		s.play(&sch.steps[i])
	}
	led.noteOp("clock tick", c.clock(env.ctx, crashAt))
	before := s.read(crashAt)
	c.close()
	if before == nil {
		return nil, fmt.Errorf("state read before the kill failed: %v", led.problems)
	}
	led.noteCheck("counts", led.checkCounts(before))
	led.noteCheck("capacity", led.checkCapacity())
	pop.kill()
	records := sch.vms + led.releases() + len(sch.steps) + 1
	journalBytes := fileSize(filepath.Join(seedDir, "journal.jsonl"))
	base, err := ffpsEnergy(env.ctx, led, env.seed)
	if err != nil {
		return nil, err
	}
	env.setupOnce += time.Since(t0)

	var restart, read, pass, plan durations
	var reductions, rss, moves []float64
	var cpu time.Duration
	var energy0 float64
	// recovering is the wall time of the repetitions' recovery halves: copy,
	// start, replay, the digest-checked reads. vms_per_s is taken over it.
	var recovering time.Duration
	// oneRestart is one repetition.
	oneRestart := func(rep int) error {
		t0 := time.Now()
		dir := filepath.Join(env.tmp, fmt.Sprintf("rep-%d", rep))
		if err := copyDir(seedDir, dir); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		d, err := open(dir)
		if err != nil {
			return err
		}
		defer d.kill()
		restart = append(restart, time.Since(d.execAt))
		c := newClient(d.url, env.conns, env.spans)
		defer c.close()
		s := &session{ctx: env.ctx, c: c, led: led, rec: &recorder{on: true}, rd: &round{}, conns: env.conns}
		// Only bytes written before the SIGKILL count: the restored state
		// must be the acknowledged one, byte for byte.
		for i := 0; i < readsPerRestart; i++ {
			after := s.read(crashAt)
			if after != nil && after.digest != before.digest {
				led.failf(1, "rep %d: state digest after restart %s differs from %s before the kill", rep, after.digest, before.digest)
			}
		}
		read = append(read, s.rd.read...)
		ps := d.sample()
		cpu += ps.cpu
		rss = append(rss, float64(ps.hwmKB)/1024)
		recovering += time.Since(t0)
		// The consolidation pass and the drain behind it take several
		// restarts' time and give the same answer every repetition, so only
		// the first few repetitions run them; the rest buy restart samples.
		if rep >= consolidatedRestarts {
			return nil
		}
		cons, r := c.consolidate(env.ctx)
		led.noteOp("consolidate", r)
		pass = append(pass, r.latency)
		if cons != nil {
			moves = append(moves, float64(cons.Executed))
		}
		if env.traced {
			if m, err := c.metrics(env.ctx); err == nil {
				plan = append(plan, time.Duration(m.sum("vmalloc_cluster_consolidate_seconds_sum")*float64(time.Second)))
			}
		}
		// Migrations keep every VM's interval, so the acknowledged ends
		// still hold: drain past them and read the energy.
		drainTo := led.lastEnd() + drainSlack
		led.noteOp("drain tick", c.clock(env.ctx, drainTo))
		if final := s.read(drainTo); final != nil {
			reductions = append(reductions, reductionPct(final.totalEnergy, base))
			if rep == 0 {
				energy0 = final.totalEnergy
			} else if final.totalEnergy != energy0 {
				led.failf(1, "rep %d: energy after consolidation %v differs from rep 0's %v", rep, final.totalEnergy, energy0)
			}
		}
		return nil
	}
	measureT0 := time.Now()
	for rep := 0; time.Since(measureT0).Seconds() < env.seconds || rep == 0; rep++ {
		if err := env.ctx.Err(); err != nil {
			return nil, err
		}
		if rep%8 == 0 {
			env.cal.sample()
		}
		if err := oneRestart(rep); err != nil {
			return nil, err
		}
	}

	vms := led.accepted()
	res.absorb(led)
	setup, op := env.setupOnce.Seconds(), median(restart.msValues())
	restored := float64(vms * len(restart))
	res.report("setup_s", "s", setup, env.cal.atReference(setup, 0))
	res.report("vms_per_s", "1/s", restored/recovering.Seconds(), restored/env.cal.atReference(recovering.Seconds(), 0))
	res.report("op_p50_ms", "ms", op, env.cal.atReference(op, 0))
	res.e2e["peak_rss_mb"] = median(rss)
	res.e2e["energy_reduction_pct"] = median(reductions)
	res.notef("%d restarts of a %d-record journal (%d VMs, %d resident at the kill)", len(restart), records, vms, len(before.residents))

	if env.traced {
		var boots durations
		for i := 0; i < 5; i++ {
			d, err := open(filepath.Join(env.tmp, fmt.Sprintf("empty-%d", i)))
			if err != nil {
				return nil, err
			}
			boots = append(boots, time.Since(d.execAt))
			d.kill()
		}
		boot := median(boots.msValues())
		res.layer["bench.server_cpu_us_per_vm"] = us(cpu) / float64(len(restart)*vms)
		res.layer["clusterhttp.state_read_ms_p50"] = median(read.msValues())
		res.layer["cluster.boot_empty_ms"] = boot
		if replay := median(restart.msValues()) - boot; replay > 0 {
			res.layer["cluster.replay_records_per_s"] = float64(records) / (replay / 1000)
		}
		res.layer["cluster.consolidate_pass_ms"] = median(pass.msValues())
		res.layer["cluster.consolidate_plan_ms"] = median(plan.msValues())
		res.layer["cluster.consolidate_moves_per_pass"] = median(moves)
		res.layer["cluster.journal_bytes_per_record"] = float64(journalBytes) / float64(records)
	}
	return res, nil
}

// readsPerRestart is how many times each repetition reads the restored
// state back; the first one is cold, and all of them are digest-checked.
const readsPerRestart = 10

// consolidatedRestarts is how many of a run's repetitions go on to the
// consolidation pass and the drain.
const consolidatedRestarts = 3

// releases is the number of acknowledged early releases.
func (l *ledger) releases() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, p := range l.vms {
		if p.releasedAt > 0 {
			n++
		}
	}
	return n
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// copyDir copies the regular files of one flat directory into a new one.
func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(from, e.Name()), filepath.Join(to, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
