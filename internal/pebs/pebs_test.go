package pebs

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// step consumes one miss at addr.
func step(s *Sampler, addr uint64, routine string) (Sample, bool) {
	return s.Advance(1, addr, routine)
}

func TestSamplerDecimation(t *testing.T) {
	s := NewSampler(100)
	emitted := 0
	for i := 0; i < 1000; i++ {
		if _, ok := step(s, uint64(i), "r"); ok {
			emitted++
		}
	}
	if emitted != 10 || s.Emitted() != 10 {
		t.Fatalf("emitted = %d (counter %d), want 10 (period 100 over 1000 misses)", emitted, s.Emitted())
	}
}

func TestSamplerExactNth(t *testing.T) {
	s := NewSampler(3)
	var picks []int
	for i := 1; i <= 9; i++ {
		if _, ok := step(s, uint64(i), "r"); ok {
			picks = append(picks, i)
		}
	}
	want := []int{3, 6, 9}
	if len(picks) != 3 || picks[0] != want[0] || picks[1] != want[1] || picks[2] != want[2] {
		t.Fatalf("picked misses %v, want %v", picks, want)
	}
}

func TestSamplerCarriesContext(t *testing.T) {
	s := NewSampler(1)
	smp, ok := step(s, 0xabc, "octsweep")
	if !ok {
		t.Fatal("period-1 sampler must sample every miss")
	}
	if smp.Addr != 0xabc || smp.Routine != "octsweep" {
		t.Fatalf("sample = %+v", smp)
	}
}

func TestSamplerDefaultPeriod(t *testing.T) {
	s := NewSampler(0)
	if s.Period() != DefaultPeriod || s.Due() != DefaultPeriod {
		t.Fatalf("period = %d, due = %d, want %d", s.Period(), s.Due(), DefaultPeriod)
	}
}

func TestSamplerOverheadAndReset(t *testing.T) {
	s := NewSampler(10)
	for i := 0; i < 100; i++ {
		step(s, 0, "")
	}
	if s.OverheadCycles() != 10*s.PerSampleCost {
		t.Fatalf("overhead = %d", s.OverheadCycles())
	}
}

func TestSamplerRateProperty(t *testing.T) {
	f := func(p uint16, n uint16) bool {
		period := uint64(p%500) + 1
		misses := int(n)
		s := NewSampler(period)
		emitted := 0
		for i := 0; i < misses; i++ {
			if _, ok := step(s, uint64(i), ""); ok {
				emitted++
			}
		}
		return emitted == misses/int(period)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSamplerAdvanceMatchesPerMiss pins the stepped sampler against
// the one-miss-at-a-time one: over a miss stream cut into random
// stretches that never pass the due miss, Advance must take the same
// samples (address and routine) and end with the same Emitted,
// OverheadCycles and countdown as one step per miss.
func TestSamplerAdvanceMatchesPerMiss(t *testing.T) {
	routines := []string{"a", "b", "c"}
	for _, period := range []uint64{1, 2, 7, 100, DefaultPeriod} {
		rng := xrand.New(period)
		bulk, single := NewSampler(period), NewSampler(period)
		var got, want []Sample
		const total = 200000
		for done := int64(0); done < total; {
			// Mostly stretches up to the due miss, sometimes short
			// of it, as a miss path with a second sampler produces.
			n := bulk.Due()
			if rng.Uint64n(3) == 0 {
				n = 1 + int64(rng.Uint64n(uint64(n)))
			}
			n = min(n, total-done)
			routine := routines[rng.Uint64n(uint64(len(routines)))]
			addr := uint64(done+n) * 64
			for i := int64(1); i <= n; i++ {
				if smp, ok := step(single, uint64(done+i)*64, routine); ok {
					want = append(want, smp)
				}
			}
			if smp, ok := bulk.Advance(n, addr, routine); ok {
				got = append(got, smp)
			}
			done += n
		}
		if len(got) != len(want) {
			t.Fatalf("period %d: %d samples, per-miss %d", period, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("period %d: sample %d = %+v, per-miss %+v", period, i, got[i], want[i])
			}
		}
		if bulk.Emitted() != single.Emitted() || bulk.OverheadCycles() != single.OverheadCycles() || bulk.Due() != single.Due() {
			t.Errorf("period %d: emitted/overhead/due = %d/%d/%d, per-miss %d/%d/%d", period,
				bulk.Emitted(), bulk.OverheadCycles(), bulk.Due(), single.Emitted(), single.OverheadCycles(), single.Due())
		}
	}
}

// TestSamplerAdvancePastDuePanics pins the step contract: a stretch
// that reaches past the due miss would swallow a sample.
func TestSamplerAdvancePastDuePanics(t *testing.T) {
	for _, n := range []int64{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Advance(%d) with Due() 3 did not panic", n)
				}
			}()
			NewSampler(3).Advance(n, 0, "")
		}()
	}
}
