package main

import (
	"bytes"
	"testing"

	"ooc/internal/specio"
	"ooc/internal/usecases"
)

// TestSameSeedSameOps pins the seeded-input contract: a seed fixes a
// byte-identical op sequence for every workload and phase, and another
// seed gives other bodies.
func TestSameSeedSameOps(t *testing.T) {
	for _, w := range workloads {
		for _, phase := range []struct {
			name string
			ops  func(seed uint64) []op
		}{
			{"warmup", func(seed uint64) []op { return w.warmup(seed, 16) }},
			{"timed", func(seed uint64) []op { return w.timed(seed).take(64) }},
		} {
			a, b, other := phase.ops(7), phase.ops(7), phase.ops(8)
			for i := range a {
				if a[i].kind != b[i].kind || a[i].path != b[i].path || a[i].key != b[i].key || !bytes.Equal(a[i].body, b[i].body) {
					t.Fatalf("%s/%s: op %d differs between two draws of seed 7", w.name, phase.name, i)
				}
			}
			if bytes.Equal(a[0].body, other[0].body) {
				t.Errorf("%s/%s: seeds 7 and 8 give the same first body", w.name, phase.name)
			}
		}
	}
}

// TestSpecsCoverSweepRanges checks that generated specs parse, stay
// within the evaluation sweep's extremes, and deal every use case once
// per block of eight.
func TestSpecsCoverSweepRanges(t *testing.T) {
	sw := usecases.ExtendedSweep()
	muLo, muHi := extremes(sw.Viscosities)
	tauLo, tauHi := extremes(sw.Shears)
	spLo, spHi := extremes(sw.Spacings)
	g := newSpecGen(newRNG(3, streamTimed))
	seen := map[string]bool{}
	for i := 0; i < 8*20; i++ {
		spec, err := specio.Parse(g.next())
		if err != nil {
			t.Fatal(err)
		}
		if mu := spec.Fluid.Viscosity; mu < muLo || mu > muHi {
			t.Errorf("viscosity %v outside [%v, %v]", mu, muLo, muHi)
		}
		if tau := spec.ShearStress; tau < tauLo || tau > tauHi {
			t.Errorf("shear %v outside [%v, %v]", tau, tauLo, tauHi)
		}
		if sp := spec.Geometry.Spacing; sp < spLo || sp > spHi {
			t.Errorf("spacing %v outside [%v, %v]", sp, spLo, spHi)
		}
		if seen[spec.Name] {
			t.Fatalf("use case %s twice in one block", spec.Name)
		}
		seen[spec.Name] = true
		if len(seen) == len(usecases.All()) {
			seen = map[string]bool{}
		}
	}
}

// TestColdMixAndZipf checks that serve_cold deals every use case the
// exact 4:3:3 endpoint mix per deck of 80 ops, and that serve_warm's
// most popular key draws about a fifth of the traffic.
func TestColdMixAndZipf(t *testing.T) {
	ops := coldOps(5, streamTimed).take(80)
	count := map[string]map[opKind]int{}
	for _, o := range ops {
		spec, err := specio.Parse(o.body)
		if err != nil {
			t.Fatal(err)
		}
		if count[spec.Name] == nil {
			count[spec.Name] = map[opKind]int{}
		}
		count[spec.Name][o.kind]++
	}
	for name, c := range count {
		if c[opDesign] != 4 || c[opValidate] != 3 || c[opValidateBudget] != 3 {
			t.Errorf("%s: mix %v, want 4/3/3", name, c)
		}
	}
	if len(count) != len(usecases.All()) {
		t.Errorf("%d use cases in a deck, want %d", len(count), len(usecases.All()))
	}

	keys := catalogue(5)
	if len(keys) != 2*warmSpecs {
		t.Fatalf("catalogue has %d keys, want %d", len(keys), 2*warmSpecs)
	}
	z := newZipf(newRNG(5, streamZipf), len(keys), zipfS)
	hits := make([]int, len(keys))
	const draws = 20000
	for i := 0; i < draws; i++ {
		hits[z.next()]++
	}
	// P(key 0) = 1/H(192, 1.1) ≈ 0.2.
	if hits[0] < draws/8 || hits[0] > draws/3 || hits[1] >= hits[0] {
		t.Errorf("keys 0 and 1 drawn %d and %d of %d times, want about a fifth and less", hits[0], hits[1], draws)
	}
}
