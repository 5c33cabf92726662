package temporal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"offnetrisk/internal/obs"
)

// Event is one line of a trajectory: the shared clock time, a dense
// sequence number (the deterministic tiebreak), the event kind, and the
// kind-specific payload. Events are what the digest hashes and what the
// -events stream carries, so the struct marshals canonically: field order
// is fixed and unset fields are omitted.
type Event struct {
	AtHours float64 `json:"at_hours"`
	Seq     int     `json:"seq"`
	// Kind is "tick", "demand_step_start"/"_end",
	// "facility_failure_start"/"_end", "capacity_cut_start"/"_end",
	// "isolation_on"/"isolation_off", "congestion_onset",
	// "congestion_clear", or "flows".
	Kind     string     `json:"kind"`
	Hour     int        `json:"hour,omitempty"`
	HG       string     `json:"hg,omitempty"`
	ISP      uint32     `json:"isp,omitempty"`
	Facility int        `json:"facility,omitempty"`
	IXP      int        `json:"ixp,omitempty"`
	Transit  uint32     `json:"transit,omitempty"`
	Layer    string     `json:"layer,omitempty"`
	Value    float64    `json:"value,omitempty"`
	Agg      *Aggregate `json:"agg,omitempty"`
}

// Aggregate sums one step's serving split and congestion outcome. Unserved
// is identically zero in this serving model — transit is the unbounded
// spill sink, so no demand is dropped; what reality would shed shows up as
// OverloadGbps on congested shared links instead. The field stays in the
// schema (and in the conservation identity the property suite checks) so a
// future clipping serving mode slots in without a digest-schema change.
type Aggregate struct {
	Demand         float64 `json:"demand"`
	Offnet         float64 `json:"offnet"`
	PNI            float64 `json:"pni"`
	IXP            float64 `json:"ixp"`
	UpstreamOffnet float64 `json:"upstream_offnet"`
	Transit        float64 `json:"transit"`
	Unserved       float64 `json:"unserved"`
	OverloadGbps   float64 `json:"overload_gbps"`

	CongestedIXPs          int  `json:"congested_ixps"`
	CongestedTransits      int  `json:"congested_transits"`
	DirectISPs             int  `json:"direct_isps"`
	CollateralISPs         int  `json:"collateral_isps"`
	IsolatedCollateralISPs int  `json:"isolated_collateral_isps,omitempty"`
	Burst                  bool `json:"burst,omitempty"`
	Isolated               bool `json:"isolated,omitempty"`
}

// Step is one evaluation of the world at an event timestamp: its time,
// its clock hour and its aggregate, which is what reports and the digest
// read.
type Step struct {
	AtHours float64
	Hour    int
	Agg     Aggregate
}

// Trajectory is one engine run: every event in (timestamp, seq) order plus
// one Step per evaluated instant.
type Trajectory struct {
	Hours        int
	ScheduleName string
	Events       []Event
	Steps        []Step
}

// append stamps the event's sequence number, records it, and mirrors it on
// the live event stream when one is attached.
func (t *Trajectory) append(sink *obs.EventSink, ev Event) {
	ev.Seq = len(t.Events)
	t.Events = append(t.Events, ev)
	if sink != nil {
		sink.Emit(obs.Event{Type: "temporal", Attrs: map[string]any{"event": ev}})
	}
}

// Digest returns the canonical SHA-256 of the trajectory: each event
// JSON-marshaled on its own line, in order (an Encoder writes Marshal's
// bytes and a newline). Go's float formatting is the shortest round-trip
// representation, so identical float values — which the determinism
// contract guarantees across -workers — give identical bytes.
func (t *Trajectory) Digest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range t.Events {
		if err := enc.Encode(&t.Events[i]); err != nil {
			// Event is a plain data struct; encoding cannot fail on it.
			panic(fmt.Sprintf("temporal: marshal event: %v", err))
		}
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// Summary renders the trajectory for reports: horizon, event totals,
// congestion episodes, peak blast radius, digest. Deterministic — no
// wall-clock state reaches it.
func (t *Trajectory) Summary() string {
	var b strings.Builder
	onsets, clears := 0, 0
	for _, ev := range t.Events {
		switch ev.Kind {
		case "congestion_onset":
			onsets++
		case "congestion_clear":
			clears++
		}
	}
	peakLinks, peakLinksAt := 0, 0.0
	peakColl, peakCollAt := 0, 0.0
	maxDirect, maxIsoColl := 0, 0
	for _, st := range t.Steps {
		if n := st.Agg.CongestedIXPs + st.Agg.CongestedTransits; n > peakLinks {
			peakLinks, peakLinksAt = n, st.AtHours
		}
		if st.Agg.CollateralISPs > peakColl {
			peakColl, peakCollAt = st.Agg.CollateralISPs, st.AtHours
		}
		if st.Agg.DirectISPs > maxDirect {
			maxDirect = st.Agg.DirectISPs
		}
		if st.Agg.IsolatedCollateralISPs > maxIsoColl {
			maxIsoColl = st.Agg.IsolatedCollateralISPs
		}
	}
	name := t.ScheduleName
	if name == "" {
		name = "(steady state)"
	}
	fmt.Fprintf(&b, "temporal replay %s: %dh horizon, %d steps, %d events\n",
		name, t.Hours, len(t.Steps), len(t.Events))
	fmt.Fprintf(&b, "  congestion: %d onsets / %d clears; peak %d congested links at t=%gh\n",
		onsets, clears, peakLinks, peakLinksAt)
	fmt.Fprintf(&b, "  blast radius: peak %d collateral ISPs at t=%gh (max direct %d, max isolated collateral %d)\n",
		peakColl, peakCollAt, maxDirect, maxIsoColl)
	fmt.Fprintf(&b, "  trajectory digest %s", t.Digest())
	return b.String()
}
