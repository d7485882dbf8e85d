package energy

import (
	"fmt"
	"math"

	"vmalloc/internal/model"
	"vmalloc/internal/timeline"
)

// The paper's cost model is affine (Eq. 1): P(u) = P_idle + ΔP·u. Real
// servers deviate from it in a way Barroso & Hölzle's energy-
// proportionality argument (the paper's [14]) makes precise: the closer
// P(0) is to zero, the less consolidation matters. CurveEvaluate prices a
// placement under a generalised power curve
//
//	P(u) = P_idle·(1−β) + (P_peak − P_idle·(1−β))·u^γ
//
// where β ∈ [0,1] scales the idle draw away (β=0 keeps the paper's idle
// power; β=1 is a perfectly proportional server at u=0) and γ > 0 bends
// the load-dependent part (γ=1 is the paper's affine model; γ>1 penalises
// high utilisation, γ<1 penalises low). Peak power is preserved:
// P(1) = P_peak for every β, γ.
//
// Because the curve is nonlinear in u, the cost of a server is no longer
// a sum of per-VM terms: CurveEvaluate integrates P(u(t)) over the
// server's optimal activity schedule, which stays the one derived from
// the (scaled) idle power and transition cost.
type Curve struct {
	// IdleScale is β above.
	IdleScale float64
	// Exponent is γ above.
	Exponent float64
}

// AffineCurve is the paper's model (β=0, γ=1).
func AffineCurve() Curve { return Curve{IdleScale: 0, Exponent: 1} }

// ProportionalCurve returns a curve with the idle draw scaled away by
// beta and the paper's linear load term.
func ProportionalCurve(beta float64) Curve { return Curve{IdleScale: beta, Exponent: 1} }

// Validate reports whether the curve parameters are in range.
func (c Curve) Validate() error {
	if c.IdleScale < 0 || c.IdleScale > 1 || math.IsNaN(c.IdleScale) {
		return fmt.Errorf("energy: idle scale %g outside [0,1]", c.IdleScale)
	}
	if !(c.Exponent > 0) || math.IsInf(c.Exponent, 1) {
		return fmt.Errorf("energy: exponent %g not positive", c.Exponent)
	}
	return nil
}

// Power returns the instantaneous draw of server s at utilisation u under
// the curve.
func (c Curve) Power(s model.Server, u float64) float64 {
	idle := s.PIdle * (1 - c.IdleScale)
	if u <= 0 {
		return idle
	}
	if u > 1 {
		u = 1
	}
	return idle + (s.PPeak-idle)*math.Pow(u, c.Exponent)
}

// CurveEvaluate prices a placement under the curve: per server it derives
// the optimal activity schedule (using the scaled idle power for the
// bridge-or-sleep decision) and integrates P(u(t)) minute by minute,
// plus the transition cost per activation. With AffineCurve it agrees
// with EvaluateObjective exactly. Servers are summed in inst.Servers order.
func CurveEvaluate(inst model.Instance, placement map[int]int, c Curve) (Breakdown, error) {
	if err := c.Validate(); err != nil {
		return Breakdown{}, err
	}
	if err := inst.Validate(); err != nil {
		return Breakdown{}, err
	}
	byServer, err := inst.ByServer(placement)
	if err != nil {
		return Breakdown{}, fmt.Errorf("energy: %w", err)
	}
	var total Breakdown
	for i, vms := range byServer {
		if len(vms) > 0 {
			total = total.Add(curveEvaluateServer(inst.Servers[i], vms, c))
		}
	}
	return total, nil
}

func curveEvaluateServer(s model.Server, vms []model.VM, c Curve) Breakdown {
	var busy timeline.SegmentSet
	for _, v := range vms {
		busy.Insert(timeline.Interval{Start: v.Start, End: v.End})
	}
	// The activity schedule uses the *scaled* server: bridging an idle gap
	// costs the scaled idle power.
	scaled := s
	scaled.PIdle = s.PIdle * (1 - c.IdleScale)
	active := ActiveIntervals(scaled, &busy)
	use := model.Usage(nil, vms)
	var b Breakdown
	for _, iv := range active {
		for t := iv.Start; t <= iv.End; t++ {
			// Attribute the idle floor to Idle and the load-dependent part
			// to Run, mirroring the affine breakdown.
			b.Idle += scaled.PIdle
			b.Run += c.Power(s, use[t].CPU/s.Capacity.CPU) - scaled.PIdle
		}
	}
	b.Transition = scaled.TransitionCost() * float64(len(active))
	return b
}
