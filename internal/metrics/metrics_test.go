package metrics

import (
	"testing"

	"repro/internal/units"
)

func TestDeltaFOMPerMB(t *testing.T) {
	// 100 FOM over DDR's 80, using 32 MB: (100-80)/32 = 0.625.
	got := DeltaFOMPerMB(100, 80, 32*units.MB)
	if got < 0.624 || got > 0.626 {
		t.Fatalf("DeltaFOMPerMB = %v, want 0.625", got)
	}
	if DeltaFOMPerMB(100, 80, 0) != 0 {
		t.Fatal("zero memory should yield 0")
	}
	// Regression below DDR yields negative efficiency.
	if DeltaFOMPerMB(70, 80, 32*units.MB) >= 0 {
		t.Fatal("regression should be negative")
	}
}

func TestImprovementPct(t *testing.T) {
	if got := ImprovementPct(178.88, 100); got < 78.87 || got > 78.89 {
		t.Fatalf("ImprovementPct = %v", got)
	}
	if ImprovementPct(10, 0) != 0 {
		t.Fatal("zero base should yield 0")
	}
}
