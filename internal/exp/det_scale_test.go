package exp

import (
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/sim"
)

// TestScaleScenarioDeterminism pins the E27 scenario runner as a pure
// function of its seed: two identical invocations must agree on every
// simulation-derived quantity (virtual time, kernel event count, churn
// and sampler outcomes, owner probes) — only the wall-clock fields may
// differ. Note the scenario's virtual time is captured before the
// post-churn owner probes, whose free-running RPCs advance the clock.
func TestScaleScenarioDeterminism(t *testing.T) {
	run := func() *ScaleResult {
		res, err := RunScaleScenario("chord", 4096, 16, 50, 10*time.Millisecond, sim.Constant{RTT: time.Millisecond}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Virtual != b.Virtual || a.KernelEvents != b.KernelEvents ||
		a.ChurnEvents != b.ChurnEvents || a.StepErrors != b.StepErrors ||
		a.SamplesOK != b.SamplesOK || a.EstErrs != b.EstErrs || a.SampleErrs != b.SampleErrs ||
		a.OwnerMatches != b.OwnerMatches {
		t.Fatalf("scenario not deterministic:\n a=%+v\n b=%+v", a, b)
	}
	if !a.Survived() || (&ScaleResult{ChurnEvents: a.ChurnEvents, SamplesOK: a.SamplesOK}).Survived() {
		t.Errorf("Survived = %t for %+v, and a run whose owner probes all failed survived too", a.Survived(), a)
	}
}
