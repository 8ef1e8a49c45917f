package experiments

import "testing"

// TestRobustnessDegradationCurve is the acceptance test for the fault
// sweep: at a pinned seed the degradation surface must have the right
// shape — BER non-decreasing in drop rate on the clean axes, the
// self-healing receiver never worse than the plain one, a clean cell
// that is actually clean, and realized drops wherever the rate is
// nonzero.
func TestRobustnessDegradationCurve(t *testing.T) {
	res := Robustness(2020, Quick)

	if !res.Monotone(0, 0) {
		row := res.Row(0, 0)
		t.Errorf("BER not monotone in drop rate: %+v", row)
	}
	clean := res.Row(0, 0)[0]
	if clean.ResyncBER != 0 || clean.PlainBER != 0 {
		t.Errorf("clean cell has BER resync=%v plain=%v", clean.ResyncBER, clean.PlainBER)
	}
	if clean.PayloadSaved != 1 {
		t.Errorf("clean cell payload saved = %v, want 1", clean.PayloadSaved)
	}
	for _, pt := range res.Covert {
		if pt.ResyncBER > pt.PlainBER+1e-9 {
			t.Errorf("self-healing receiver is worse at %s: resync %v > plain %v",
				pt.String(), pt.ResyncBER, pt.PlainBER)
		}
		if pt.DropRatePerS > 0 && pt.Drops == 0 {
			t.Errorf("drop rate %v/s realized no drops", pt.DropRatePerS)
		}
		if pt.DropRatePerS == 0 && pt.Drops != 0 {
			t.Errorf("zero drop rate realized %d drops", pt.Drops)
		}
	}
	// The ECC knee must sit on the sweep's drop axis: payloads survive
	// the clean cell, and a USB-overrun-sized drop exceeds the
	// interleaver's burst budget.
	if res.KneeDropRate < 0 {
		t.Error("no ECC knee found: payload survived every drop rate")
	}

	// The keylog arm: gap-aware normalization must never hurt, and must
	// demonstrably help once AGC steps are large.
	for _, kp := range res.Keylog {
		if kp.GainStepDB == 0 {
			if kp.PlainF1 != kp.GapAwareF1 {
				t.Errorf("gap-aware changed the clean keylog run: %v vs %v",
					kp.GapAwareF1, kp.PlainF1)
			}
			continue
		}
		if kp.GainSteps == 0 {
			t.Errorf("gain-step magnitude %vdB realized no steps", kp.GainStepDB)
		}
		if kp.GapAwareF1 < kp.PlainF1 {
			t.Errorf("gap-aware hurt at %vdB steps: %v < %v",
				kp.GainStepDB, kp.GapAwareF1, kp.PlainF1)
		}
	}
	last := res.Keylog[len(res.Keylog)-1]
	if last.GapAwareF1 <= last.PlainF1 {
		t.Errorf("gap-aware detector shows no healing at %vdB: %v vs %v",
			last.GainStepDB, last.GapAwareF1, last.PlainF1)
	}
}
