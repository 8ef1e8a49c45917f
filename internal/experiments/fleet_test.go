package experiments

import (
	"testing"
)

// fleetTestScale keeps the anchor runs cheap; the campaign population
// is small but still spans many blocks.
var fleetTestScale = Scale{PayloadBits: 32, Runs: 1, Words: 6, Cells: 1 << 14}

// TestFleetShape checks the campaign's reduced state is coherent: the
// population count flows through every reducer, the calibration anchors
// are physical, and the degradation grid orders the way its calibrated
// divisors demand.
func TestFleetShape(t *testing.T) {
	res := Fleet(2020, fleetTestScale, 0)

	if res.Plan.Cells != fleetTestScale.Cells {
		t.Fatalf("plan cells = %d, want %d", res.Plan.Cells, fleetTestScale.Cells)
	}
	if res.Pop.Count != uint64(res.Plan.Cells) {
		t.Fatalf("population reducer saw %d cells, want %d", res.Pop.Count, res.Plan.Cells)
	}
	if got := res.BER.N(); got != uint64(res.Plan.Cells) {
		t.Fatalf("BER sketch saw %d cells, want %d", got, res.Plan.Cells)
	}

	if len(res.Anchors) != 6 {
		t.Fatalf("anchors for %d models, want 6", len(res.Anchors))
	}
	for _, a := range res.Anchors {
		if a.SNR <= 0 || a.BER < 0 || a.TR <= 0 {
			t.Fatalf("unphysical anchor %+v", a)
		}
	}

	// Severity divisors are clamped monotone non-decreasing with
	// clean = 1, so the calibrated grid can only hurt the attacker.
	if res.Severities[0].SNRFactor != 1 {
		t.Fatalf("clean severity divisor = %v, want 1", res.Severities[0].SNRFactor)
	}
	for i := 1; i < len(res.Severities); i++ {
		if res.Severities[i].SNRFactor < res.Severities[i-1].SNRFactor {
			t.Fatalf("severity divisors not monotone: %v", res.Severities)
		}
	}

	// The sub-population counts tile the population exactly.
	var modelN, sevN uint64
	for _, g := range res.PerModel {
		modelN += g.BER.Count
	}
	for _, g := range res.PerSev {
		sevN += g.BER.Count
	}
	if modelN != uint64(res.Plan.Cells) || sevN != uint64(res.Plan.Cells) {
		t.Fatalf("group counts: models %d, severities %d, want %d both", modelN, sevN, res.Plan.Cells)
	}

	// Zipf mixes are heavy-headed: the first model/severity dominates.
	if res.PerModel[0].BER.Count <= res.PerModel[len(res.PerModel)-1].BER.Count {
		t.Fatal("model mix is not Zipf-heavy-headed")
	}
	if res.PerSev[0].BER.Count <= res.PerSev[len(res.PerSev)-1].BER.Count {
		t.Fatal("severity mix is not Zipf-heavy-headed")
	}

	// Worst cells are valid, sorted, and within the BER domain.
	if len(res.Worst) == 0 {
		t.Fatal("no worst cells retained")
	}
	for i, it := range res.Worst {
		if it.Value < 0 || it.Value > 0.5 {
			t.Fatalf("worst cell %d has BER %v outside [0, 0.5]", it.Cell, it.Value)
		}
		if i > 0 && it.Value > res.Worst[i-1].Value {
			t.Fatal("worst cells not sorted by BER")
		}
		if it.Cell < 0 || it.Cell >= res.Plan.Cells {
			t.Fatalf("worst cell index %d outside the population", it.Cell)
		}
	}

	// Reducer state is bounded by the block partition, not the cell
	// count (the scaling law itself is pinned in internal/campaign's
	// TestFlatReducerMemory): a few KB per block, never remotely the
	// 8 MB an O(cells) float64 slice costs at the million-cell scale
	// this experiment runs at.
	if res.StateBytes <= 0 || res.StateBytes > 4<<20 {
		t.Fatalf("reducer state = %d bytes — outside the flat-memory envelope", res.StateBytes)
	}
}

// TestFleetDegradationGridOrders checks the population-scale
// degradation effect the severity axis exists for: with monotone
// calibrated SNR divisors, the harshest severity's sub-population must
// show a higher mean BER and a lower mean F1 than the clean one.
func TestFleetDegradationGridOrders(t *testing.T) {
	res := Fleet(2020, fleetTestScale, 0)
	clean, heavy := res.PerSev[0], res.PerSev[len(res.PerSev)-1]
	if heavy.BER.Mean <= clean.BER.Mean {
		t.Fatalf("heavy severity mean BER %v not above clean %v", heavy.BER.Mean, clean.BER.Mean)
	}
	if heavy.F1.Mean >= clean.F1.Mean {
		t.Fatalf("heavy severity mean F1 %v not below clean %v", heavy.F1.Mean, clean.F1.Mean)
	}
}
