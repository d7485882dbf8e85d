package cluster

import (
	"time"

	"vmalloc/internal/obs"
	"vmalloc/internal/online"
)

// sampleEnergyLocked records the fleet's energy-over-time point for the
// c.energyDue mutations finishLocked counted since the last one, if any.
// Callers hold c.mu, before the clock moves (AdvanceTo, an Admit whose
// batch moves it) or the recorder is read (flushEnergy, its source), so
// every reader sees the series, seq and rates one sample per mutation
// would leave — the newest total equals State.TotalEnergy — and only Wall
// differs: the minute's last mutation. Sampling is read-only on the fleet.
func (c *Cluster) sampleEnergyLocked() {
	if c.energyDue == 0 {
		return
	}
	now := c.fleet.Now()
	b := c.fleet.EnergyAt(now)
	s := obs.EnergySample{
		Wall:                  c.energyWall,
		Clock:                 now,
		RunWattMinutes:        b.Run,
		IdleWattMinutes:       b.Idle,
		TransitionWattMinutes: b.Transition,
		TotalWattMinutes:      b.Total(),
	}
	fv := c.fleet.View()
	clear(c.classUse)
	for i, k := range c.classOf {
		cu := &c.classUse[k]
		cu.Servers++
		s.Residents += fv.Running(i)
		switch fv.StateOf(i) {
		case online.Active:
			s.Active++
			cu.Active++
			cu.CPUCapacity += c.cfg.Servers[i].Capacity.CPU
			cpu, _ := fv.MaxUsage(i, now, now)
			cu.CPUUsed += cpu
		case online.Waking:
			s.Waking++
		default:
			s.Sleeping++
		}
	}
	s.Classes = make(map[string]obs.ClassUsage, len(c.classUse))
	for k, cu := range c.classUse {
		if cu.CPUCapacity > 0 {
			cu.Utilization = cu.CPUUsed / cu.CPUCapacity
		}
		s.Classes[c.classNames[k]] = cu
	}
	c.cfg.Energy.RecordN(s, c.energyDue)
	c.energyDue = 0
}

// flushEnergy is the recorder's source: it records the due sample, so a
// read sees the fleet as the last mutation left it.
func (c *Cluster) flushEnergy() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sampleEnergyLocked()
}

// indexClasses resolves every server's class — its Type, "default" when
// empty — to a slot once, so a sample accumulates into a slice instead of
// looking a string up per server.
func (c *Cluster) indexClasses() {
	slot := map[string]int{}
	c.classOf = make([]int, len(c.cfg.Servers))
	for i, s := range c.cfg.Servers {
		key := s.Type
		if key == "" {
			key = "default"
		}
		k, ok := slot[key]
		if !ok {
			k = len(c.classNames)
			slot[key] = k
			c.classNames = append(c.classNames, key)
		}
		c.classOf[i] = k
	}
	c.classUse = make([]obs.ClassUsage, len(c.classNames))
}

// stageClock carries the start instant of each timed pipeline stage of
// one decision, zero when the stage did not run. entered is when the call
// entered the cluster: decode ended there and, for an admission, the wait
// for the cluster lock started.
type stageClock struct {
	entered, scan, commit, journal, sync time.Time
}

// emitStageSpans records one decision's non-zero stage timings as typed
// trace spans parented on tc (the span that carried the operation into
// the cluster), each starting at the instant clk holds for it. Nil span
// store or an untraced call are no-ops.
func (c *Cluster) emitStageSpans(tc obs.TraceContext, d *obs.Decision, clk stageClock) {
	if c.cfg.Spans == nil || !tc.Valid() {
		return
	}
	base := obs.Span{
		TraceID: tc.TraceID,
		Parent:  tc.SpanID,
		Op:      d.Op,
		VM:      d.VM,
		Batch:   d.Batch,
	}
	emit := func(name string, start time.Time, dur time.Duration) {
		if dur <= 0 {
			return
		}
		sp := base
		sp.SpanID = obs.NewSpanID()
		sp.Name = name
		sp.Start = start
		sp.Duration = dur
		c.cfg.Spans.Record(sp)
	}
	st := &d.Stages
	if !clk.entered.IsZero() {
		emit(obs.SpanDecode, clk.entered.Add(-st.Decode), st.Decode)
		emit(obs.SpanQueue, clk.entered, st.QueueWait)
	}
	emit(obs.SpanScan, clk.scan, st.Scan)
	emit(obs.SpanCommit, clk.commit, st.Commit)
	emit(obs.SpanJournal, clk.journal, st.Journal)
	emit(obs.SpanSync, clk.sync, st.Sync)
}

// openSpan opens an umbrella span (a migration, an adoption, a
// consolidation pass) under tc: sp carries its name, labels and start.
// It returns the context the work's own spans nest under and the func
// that records the umbrella once that work is done. With no span store
// or an untraced call it returns tc and a no-op.
func (c *Cluster) openSpan(tc obs.TraceContext, sp obs.Span) (obs.TraceContext, func()) {
	if c.cfg.Spans == nil || !tc.Valid() {
		return tc, func() {}
	}
	sp.TraceID, sp.SpanID, sp.Parent = tc.TraceID, obs.NewSpanID(), tc.SpanID
	return obs.TraceContext{TraceID: tc.TraceID, SpanID: sp.SpanID}, func() {
		sp.Duration = time.Since(sp.Start)
		c.cfg.Spans.Record(sp)
	}
}
