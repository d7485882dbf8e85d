package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vmalloc"
	"vmalloc/internal/api"
)

// serviceSpec describes one of the three workloads that drive the real
// daemons over loopback /v1 HTTP.
type serviceSpec struct {
	name string
	// generate builds the round's instance: the VMs and the whole fleet.
	generate func(scale int, seed int64) (vmalloc.Instance, error)
	// shards > 0 puts a vmgate in front of that many vmserves, each on a
	// contiguous slice of the fleet; 0 is one vmserve, addressed directly.
	shards          int
	releaseFraction float64
	// single sends every VM as its own admit call, spread over all the
	// connections; otherwise a minute's arrivals travel in one call.
	single bool
	// readEvery is the number of fleet minutes between GET /v1/state reads.
	readEvery int
	// deterministic workloads issue one admit call per step, so their
	// outcome digest must be equal across rounds.
	deterministic bool
	// serve picks the vmserve options for a round; dir is a fresh directory.
	serve func(dir string) serveOpts
}

// deployment is one round's running processes.
type deployment struct {
	front   *daemon   // what the generator talks to
	daemons []*daemon // every process, front included
	shards  []*daemon
	fleets  [][]vmalloc.Server
	names   map[string]int // shard name → fleet index
}

func (d *deployment) kill() {
	for _, p := range d.daemons {
		p.kill()
	}
}

// variant adjusts how a round's daemons are started (traced runs use it
// for the telemetry-off and GOMAXPROCS pairs).
type variant struct {
	serveExtra []string
	gateExtra  []string
	env        []string
}

func deploy(env *runEnv, spec *serviceSpec, servers []vmalloc.Server, dir string, v variant) (*deployment, error) {
	d := &deployment{names: map[string]int{}}
	opts := func(sub string) serveOpts {
		o := spec.serve(filepath.Join(dir, sub))
		o.extra = append(o.extra, v.serveExtra...)
		o.env = append(o.env, v.env...)
		return o
	}
	if spec.shards == 0 {
		s, err := startServe(env, "serve", servers, opts("journal"))
		if err != nil {
			return nil, err
		}
		d.front, d.daemons, d.shards, d.fleets = s, []*daemon{s}, []*daemon{s}, [][]vmalloc.Server{servers}
		return d, nil
	}
	d.fleets = splitFleet(servers, spec.shards)
	for i, fleet := range d.fleets {
		name := fmt.Sprintf("s%d", i)
		s, err := startServe(env, name, fleet, opts("journal-"+name))
		if err != nil {
			d.kill()
			return nil, err
		}
		d.names[name] = i
		d.shards = append(d.shards, s)
		d.daemons = append(d.daemons, s)
	}
	g, err := startGate(env, d.shards, v.gateExtra)
	if err != nil {
		d.kill()
		return nil, err
	}
	d.front = g
	d.daemons = append(d.daemons, g)
	return d, nil
}

// round is what one replay of the schedule against fresh daemons measured.
type round struct {
	setup        time.Duration // daemon start + warm-up
	measuredFrom time.Time     // when the measured phase began
	wall         time.Duration // the measured phase
	accepted     int           // VMs accepted inside the measured phase
	admit        durations
	release      durations
	clock        durations
	read         durations
	// cpu is user+system time of all daemons over the measured phase;
	// genCPU the generator's own.
	cpu, genCPU time.Duration
	peakRSSKB   int64 // largest VmHWM among the daemons
	writeBytes  int64 // storage writes of all daemons over the measured phase
	energy      float64
	digest      string
	led         *ledger
	reqBytes    int64
	respBytes   int64
	layer       *layerCapture // traced rounds only
}

// recorder collects the measured phase's latencies from concurrent jobs.
type recorder struct {
	mu sync.Mutex
	on bool
}

func (rec *recorder) add(dst *durations, d time.Duration) {
	rec.mu.Lock()
	if rec.on {
		*dst = append(*dst, d)
	}
	rec.mu.Unlock()
}

// runJobs runs the jobs over at most workers goroutines and waits.
func runJobs(workers int, jobs []func()) {
	if len(jobs) == 0 {
		return
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	ch := make(chan func())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				j()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// session is one client's replay state: where calls go, where their
// outcomes are recorded.
type session struct {
	ctx       context.Context
	c         *client
	led       *ledger
	rec       *recorder
	rd        *round
	conns     int
	gate      bool
	names     map[string]int
	single    bool
	readEvery int
}

// play issues one step: the clock tick, the minute's admissions, then its
// releases and (every readEvery minutes) a state read beside them.
func (s *session) play(st *step) {
	r := s.c.clock(s.ctx, st.minute)
	s.led.noteOp("clock tick", r)
	s.rec.add(&s.rd.clock, r.latency)

	var jobs []func()
	admit := func(reqs []api.AdmitRequest) {
		s.led.noteSent(reqs)
		resps, r := s.c.admit(s.ctx, reqs)
		n := s.led.noteAdmit(reqs, resps, r)
		s.rec.add(&s.rd.admit, r.latency)
		s.rec.mu.Lock()
		if s.rec.on {
			s.rd.accepted += n
		}
		s.rec.mu.Unlock()
	}
	if s.single {
		for k := range st.admits {
			reqs := st.admits[k : k+1]
			jobs = append(jobs, func() { admit(reqs) })
		}
	} else if len(st.admits) > 0 {
		admit(st.admits)
	}
	for _, id := range st.releases {
		if !s.led.beginRelease(id) {
			continue // its admission failed, and was counted then
		}
		jobs = append(jobs, func() {
			r := s.c.release(s.ctx, id)
			s.led.noteRelease(id, st.minute, r)
			s.rec.add(&s.rd.release, r.latency)
		})
	}
	if s.readEvery > 0 && st.minute%s.readEvery == 0 {
		// First in the queue, so it runs beside the minute's writes.
		jobs = append([]func(){func() { s.read(st.minute) }}, jobs...)
	}
	runJobs(s.conns, jobs)
}

// read issues one GET /v1/state and holds it against the ledger. minute is
// the fleet clock the read starts at.
func (s *session) read(minute int) *stateView {
	must := s.led.mustBeResident(minute)
	view, r := s.c.state(s.ctx, s.gate, s.names)
	s.led.noteOp("state read", r)
	s.rec.add(&s.rd.read, r.latency)
	if view != nil {
		s.led.noteCheck("residency", s.led.checkSnapshot(view, must))
	}
	return view
}

// lastEnd is the last fleet minute any acknowledged VM occupies.
func (l *ledger) lastEnd() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	last := 0
	for _, p := range l.vms {
		last = max(last, p.end)
	}
	return last
}

// drainSlack is how far past the last VM's end the drain tick goes: beyond
// the idle timeout, so every sleep the run provoked is in the final energy.
const drainSlack = 8

// playRound starts fresh daemons, replays the schedule closed-loop over
// env.conns connections, checks the answers and tears the daemons down.
func playRound(env *runEnv, spec *serviceSpec, sch *schedule, servers []vmalloc.Server, v variant, traced bool) (*round, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(env.tmp, "round-")
	if err != nil {
		return nil, err
	}
	dep, err := deploy(env, spec, servers, dir, v)
	if err != nil {
		return nil, err
	}
	defer dep.kill()
	var spans *spanLog
	if traced {
		spans = env.spans
	}
	c := newClient(dep.front.url, env.conns, spans)
	defer c.close()
	rd := &round{led: newLedger(dep.fleets)}
	s := &session{ctx: env.ctx, c: c, led: rd.led, rec: &recorder{}, rd: rd, conns: env.conns,
		gate: spec.shards > 0, names: dep.names, single: spec.single, readEvery: spec.readEvery}
	var before []procSample
	var genBefore time.Duration
	var metricsBefore promMetrics

	for i := range sch.steps {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		if i == sch.warm {
			if traced {
				if metricsBefore, err = c.metrics(s.ctx); err != nil {
					return nil, err
				}
			}
			for _, p := range dep.daemons {
				before = append(before, p.sample())
			}
			genBefore = selfCPU()
			c.reqBytes.Store(0)
			c.respBytes.Store(0)
			rd.setup = time.Since(t0)
			rd.measuredFrom = time.Now()
			s.rec.on = true
		}
		s.play(&sch.steps[i])
	}

	drainTo := max(rd.led.lastEnd(), sch.steps[len(sch.steps)-1].minute) + drainSlack
	r := c.clock(s.ctx, drainTo)
	rd.led.noteOp("drain tick", r)
	s.rec.on = false
	rd.wall = time.Since(rd.measuredFrom)
	rd.genCPU = selfCPU() - genBefore
	for i, p := range dep.daemons {
		after := p.sample()
		rd.cpu += after.cpu - before[i].cpu
		rd.writeBytes += after.writeBytes - before[i].writeBytes
		rd.peakRSSKB = max(rd.peakRSSKB, after.hwmKB)
	}
	rd.reqBytes, rd.respBytes = c.reqBytes.Load(), c.respBytes.Load()

	// The fleet is quiescent now: the final read must agree with the
	// acknowledgements exactly.
	view := s.read(drainTo)
	if view == nil {
		return nil, fmt.Errorf("final state read failed: %v", rd.led.problems)
	}
	rd.led.noteCheck("counts", rd.led.checkCounts(view))
	rd.led.noteCheck("capacity", rd.led.checkCapacity())
	rd.energy = view.totalEnergy
	// Not the state digest: concurrent releases refund run cost in arrival
	// order, so the energy's last bits (and with them the state bytes) may
	// differ between rounds that placed every VM identically.
	rd.digest = rd.led.outcomeDigest()
	if traced {
		if rd.layer, err = captureLayers(s.ctx, c, dep, metricsBefore); err != nil {
			return nil, err
		}
	}
	return rd, nil
}

// ffpsEnergy is E_FFPS: the facade's FFPS baseline on the VMs' realised
// intervals and the same servers.
func ffpsEnergy(ctx context.Context, led *ledger, seed int64) (float64, error) {
	inst := led.realisedInstance()
	res, err := vmalloc.NewFFPS(vmalloc.WithSeed(seed)).Allocate(ctx, inst)
	if err != nil {
		return 0, fmt.Errorf("FFPS baseline: %w", err)
	}
	return res.Energy.Total(), nil
}

func reductionPct(run, base float64) float64 { return 100 * (base - run) / base }

// runService runs a service workload: rounds of the same schedule against
// fresh daemons until the measured phases add up to env.seconds.
func runService(env *runEnv, spec *serviceSpec) (*result, error) {
	t0 := time.Now()
	inst, err := spec.generate(env.scale, env.seed)
	if err != nil {
		return nil, err
	}
	sch := buildSchedule(inst, spec.releaseFraction, env.seed)
	env.setupOnce += time.Since(t0)

	res := newResult(spec.name, env)
	var rounds []*round
	var measured time.Duration
	baseline := map[string]float64{} // outcome digest → E_FFPS
	var reductions []float64
	for measured.Seconds() < env.seconds || len(rounds) == 0 {
		env.cal.sample()
		rd, err := playRound(env, spec, sch, inst.Servers, variant{}, false)
		if err != nil {
			return nil, err
		}
		if spec.deterministic && len(rounds) > 0 && rd.digest != rounds[0].digest {
			rd.led.failf(1, "outcome digest differs between rounds: %s vs %s", rd.digest, rounds[0].digest)
		}
		base, ok := baseline[rd.digest]
		if !ok {
			if base, err = ffpsEnergy(env.ctx, rd.led, env.seed); err != nil {
				return nil, err
			}
			baseline[rd.digest] = base
		}
		reductions = append(reductions, reductionPct(rd.energy, base))
		rounds = append(rounds, rd)
		measured += rd.wall
	}
	env.cal.sample()
	res.absorbRounds(env, spec, rounds, reductions)

	if env.traced {
		if err := tracedService(env, spec, sch, inst.Servers, res, rounds); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// throughput is accepted VMs per second of measured wall. Rounds are
// identical work, so it is the median of the rounds' rates: a burst of
// interference from the sandbox's neighbours spoils one round, not the run.
func throughput(rounds ...*round) float64 {
	rates := make([]float64, len(rounds))
	for i, rd := range rounds {
		rates[i] = float64(rd.accepted) / rd.wall.Seconds()
	}
	return median(rates)
}

// throughputAtReference is throughput with each round's wall converted to
// the reference machine's speed. The batch windows the round's admit calls
// waited out are timers and are not converted; callers is how many admit
// calls are in flight at once, which is how many windows overlap.
func throughputAtReference(env *runEnv, callers int, rounds []*round) float64 {
	rates := make([]float64, len(rounds))
	for i, rd := range rounds {
		windows := float64(len(rd.admit)) * env.batchWindowMS / float64(callers)
		rates[i] = float64(rd.accepted) / (env.cal.atReference(ms(rd.wall), windows) / 1000)
	}
	return median(rates)
}

// absorbRounds turns the rounds into the end-to-end metrics. Latencies are
// pooled over all rounds before their median is taken.
func (res *result) absorbRounds(env *runEnv, spec *serviceSpec, rounds []*round, reductions []float64) {
	var wall time.Duration
	var accepted int
	var admit, read durations
	var setups, rss []float64
	for _, rd := range rounds {
		wall += rd.wall
		accepted += rd.accepted
		admit = append(admit, rd.admit...)
		read = append(read, rd.read...)
		setups = append(setups, rd.setup.Seconds())
		rss = append(rss, float64(rd.peakRSSKB)/1024)
		res.absorb(rd.led)
	}
	callers := 1
	if spec.single {
		callers = env.conns
	}
	setup, op := env.setupOnce.Seconds()+median(setups), median(admit.msValues())
	res.report("setup_s", "s", setup, env.cal.atReference(setup, 0))
	res.report("vms_per_s", "1/s", throughput(rounds...), throughputAtReference(env, callers, rounds))
	res.report("op_p50_ms", "ms", op, env.cal.atReference(op, env.batchWindowMS))
	res.e2e["peak_rss_mb"] = median(rss)
	res.e2e["energy_reduction_pct"] = median(reductions)
	res.notef("%d rounds, %.2fs measured, %d VMs accepted, %d admit calls, %d state reads; vmserve's batch window %gms",
		len(rounds), wall.Seconds(), accepted, len(admit), len(read), env.batchWindowMS)
}

func runServeBatch(env *runEnv) (*result, error) {
	return runService(env, &serviceSpec{
		name: wlServeBatch,
		generate: func(scale int, seed int64) (vmalloc.Instance, error) {
			// Two diurnal periods of 150 fleet minutes at ≈50 arrivals a
			// minute: a round of ≈2 s, so a run holds five or six. The fleet is
			// sized so the peak needs about half its CPU and 60% of its
			// memory: the most that still lets both MinCost online and the
			// FFPS baseline place every VM on every seed.
			return vmalloc.GenerateDiurnal(vmalloc.DiurnalSpec{
				NumVMs: 15000 / scale, MeanInterArrival: 0.02, MeanLength: 12, PeakToTrough: 3, Period: 150,
			}, vmalloc.FleetSpec{NumServers: 512, TransitionTime: 2}, seed)
		},
		releaseFraction: 0.3,
		readEvery:       5,
		deterministic:   true,
		serve:           func(string) serveOpts { return serveOpts{} },
	})
}

func runServeDurable(env *runEnv) (*result, error) {
	return runService(env, &serviceSpec{
		name: wlServeDurable,
		generate: func(scale int, seed int64) (vmalloc.Instance, error) {
			// ≈100 single-VM admissions per fleet minute, so the clock
			// advances every ≈100 admissions and the short standard-class
			// VMs expire; 64 servers keep the scan tiny. (At 200 a minute
			// the cold fleet's first wake-up piles three minutes of arrivals
			// onto one minute and refuses some.)
			return vmalloc.Generate(vmalloc.WorkloadSpec{
				NumVMs: 4500 / scale, MeanInterArrival: 1.0 / 100, MeanLength: 1.5,
				Classes: []vmalloc.VMClass{vmalloc.ClassStandard},
			}, vmalloc.FleetSpec{NumServers: 64, TransitionTime: 2}, seed)
		},
		single:    true,
		readEvery: 1,
		serve:     func(dir string) serveOpts { return serveOpts{journal: dir} },
	})
}

func runGateMixed(env *runEnv) (*result, error) {
	return runService(env, &serviceSpec{
		name: wlGateMixed,
		generate: func(scale int, seed int64) (vmalloc.Instance, error) {
			return vmalloc.GenerateDiurnal(vmalloc.DiurnalSpec{
				NumVMs: 8000 / scale, MeanInterArrival: 0.025, MeanLength: 9, PeakToTrough: 3, Period: 100,
			}, vmalloc.FleetSpec{NumServers: 384, TransitionTime: 2}, seed)
		},
		shards:          3,
		releaseFraction: 0.3,
		readEvery:       5,
		deterministic:   true,
		// The device adds no variance: the flush policy is part of this
		// workload's definition.
		serve: func(dir string) serveOpts { return serveOpts{journal: dir, noFsync: true} },
	})
}
