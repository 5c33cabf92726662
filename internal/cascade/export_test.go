package cascade

import (
	"fmt"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
)

// ReferenceChecker checks reports the kernel built against the reference
// assessment, for the temporal engine's test in package cascade_test. It
// keeps one reference baseline per demand multiplier.
type ReferenceChecker struct {
	m      *capacity.Model
	d      *hypergiant.Deployment
	byMult map[float64]*referenceBaseline
}

// NewReferenceChecker returns a checker for reports assessed against
// baselines of m and d.
func NewReferenceChecker(m *capacity.Model, d *hypergiant.Deployment) *ReferenceChecker {
	return &ReferenceChecker{m: m, d: d, byMult: make(map[float64]*referenceBaseline)}
}

// Check reassesses rep's flows and scenario with the reference and
// compares the report and, when iso is not nil, its isolated assessment.
func (c *ReferenceChecker) Check(rep *Report, iso *IsolatedReport) error {
	mult := rep.Scenario.DemandMult
	rb := c.byMult[mult]
	if rb == nil {
		rb = newReferenceBaseline(c.m, c.d, mult, hgsByFacility(c.d))
		c.byMult[mult] = rb
	}
	want := rb.Assess(rep.Scenario, rep.Flows)
	if err := sameReport(rep, want); err != nil {
		return err
	}
	if iso != nil {
		if err := sameIsolated(iso, rb.AssessIsolated(want)); err != nil {
			return fmt.Errorf("isolated: %w", err)
		}
	}
	return nil
}
