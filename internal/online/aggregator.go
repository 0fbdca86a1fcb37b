package online

// Aggregator maintains exponentially-decayed per-site PEBS sample
// counts across epochs. Each epoch's fresh samples are folded into the
// history as scores = scores*decay + epoch, so a site's score tracks
// its recent miss rate: a phase-changing workload whose hot set moves
// between object groups sees the old group's score halve every epoch
// (at the default decay) while the new group's climbs immediately —
// the signal that triggers re-placement. A decay of 1 never forgets
// (pure accumulation, the offline profile's behaviour); smaller values
// adapt faster but are noisier.
type Aggregator struct {
	decay  float64
	scores map[string]float64
	epoch  map[string]int64
}

// NewAggregator returns an empty aggregator with the given per-epoch
// decay in (0, 1]; out-of-range values fall back to the placer's own
// epochDecay.
func NewAggregator(decay float64) *Aggregator {
	if decay <= 0 || decay > 1 {
		decay = epochDecay
	}
	return &Aggregator{
		decay:  decay,
		scores: make(map[string]float64),
		epoch:  make(map[string]int64),
	}
}

// Add records n fresh samples against site in the current epoch.
func (a *Aggregator) Add(site string, n int64) {
	if n > 0 {
		a.epoch[site] += n
	}
}

// EpochSamples returns the samples attributed to site in the current
// (not yet folded) epoch.
func (a *Aggregator) EpochSamples(site string) int64 { return a.epoch[site] }

// Score returns the site's decayed history folded with the current
// epoch — the value EndEpoch will commit. Units are samples, weighted
// toward the present.
func (a *Aggregator) Score(site string) float64 {
	return a.scores[site]*a.decay + float64(a.epoch[site])
}

// EndEpoch folds the current epoch into the history and clears the
// per-epoch counters. Sites whose score decays below noise are
// forgotten entirely so the map tracks only the working set.
func (a *Aggregator) EndEpoch() {
	for site, sc := range a.scores {
		v := sc * a.decay
		if v < 1e-6 {
			delete(a.scores, site)
			continue
		}
		a.scores[site] = v
	}
	for site, n := range a.epoch {
		a.scores[site] += float64(n)
		delete(a.epoch, site)
	}
}
