// Package metrics implements the paper's evaluation metrics: relative
// FOM improvements and the novel ΔFOM/MByte efficiency metric
// (Equation 1) that identifies how well an experiment uses the fast
// memory it was given, exposing the per-application sweet spots of
// Figure 4's right-hand column.
package metrics

import "repro/internal/units"

// DeltaFOMPerMB implements Equation 1:
//
//	ΔFOM/mbyte_x(y) = (FOM_x(y) − FOM_ddr(y)) / MEM_x
//
// where fom is the experiment's figure of merit, fomDDR the
// DDR-reference FOM, and memBytes the MCDRAM the experiment was given
// (the paper charges cache mode and numactl the full 16 GB because
// their consumption cannot be bounded tighter).
func DeltaFOMPerMB(fom, fomDDR float64, memBytes int64) float64 {
	if memBytes <= 0 {
		return 0
	}
	return (fom - fomDDR) / (float64(memBytes) / float64(units.MB))
}

// ImprovementPct returns the percentage improvement of fom over base
// ((fom-base)/base * 100), 0 when base is non-positive.
func ImprovementPct(fom, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return (fom - base) / base * 100
}
