package api

// PolicyReport is one shadow challenger's counterfactual scoreboard
// within a PoliciesResponse: what that policy's private replica fleet
// did with the same traffic the champion served.
type PolicyReport struct {
	// Name is the challenger's registration name (the -shadow-policy
	// spec on vmserve).
	Name string `json:"name"`
	// Policy is the underlying placement policy's self-reported name.
	Policy string `json:"policy"`
	// Decisions counts admissions the challenger scored.
	Decisions uint64 `json:"decisions"`
	// Divergences counts decisions whose chosen server differed from
	// the champion's (accept/reject disagreements included);
	// DivergencePct is Divergences/Decisions as a percentage.
	Divergences   uint64  `json:"divergences"`
	DivergencePct float64 `json:"divergencePct"`
	// Rejections counts admissions the challenger turned down;
	// ChampionRejections counts the champion's rejections among the
	// same decisions, and RejectionDelta is challenger minus champion
	// (negative: the challenger rejected less).
	Rejections         uint64 `json:"rejections"`
	ChampionRejections uint64 `json:"championRejections"`
	RejectionDelta     int64  `json:"rejectionDelta"`
	// EnergyWattMinutes is the challenger replica fleet's own energy
	// integral at its clock — the counterfactual Eq. 17 figure — and
	// EnergyDeltaWattMinutes is challenger minus champion (negative:
	// the challenger would have used less energy).
	EnergyWattMinutes      float64 `json:"energyWattMinutes"`
	EnergyDeltaWattMinutes float64 `json:"energyDeltaWattMinutes"`
	// Residents is the replica fleet's current resident-VM count.
	Residents int `json:"residents"`
	// Clock is the replica fleet's clock, in fleet minutes: on a vmserve,
	// always the response's Now.
	Clock int `json:"clock"`
	// Shard names the shard this report came from in a vmgate's merged
	// response; empty on a single vmserve.
	Shard string `json:"shard,omitempty"`
}

// PoliciesResponse is the body of GET /v1/policies: the shadow arena's
// per-challenger counterfactual reports next to the champion's own
// figures. A vmserve with no arena serves an empty report list with
// the champion's identity still filled in; a vmgate merges the shards'
// responses, stamping each report's Shard.
type PoliciesResponse struct {
	// Champion is the live placement policy's name. A vmgate joins
	// distinct per-shard champions with ", ".
	Champion string `json:"champion"`
	// ChampionEnergyWattMinutes is the live fleet's energy integral at
	// Now (summed across shards on a vmgate).
	ChampionEnergyWattMinutes float64 `json:"championEnergyWattMinutes"`
	// Now is the live fleet clock (the slowest shard's on a vmgate),
	// read in the same instant as every challenger's figures.
	Now int `json:"now"`
	// EvaluatedBatches counts admission batches applied to the replicas.
	EvaluatedBatches uint64 `json:"evaluatedBatches"`
	// Count is len(Policies).
	Count    int            `json:"count"`
	Policies []PolicyReport `json:"policies"`
}
