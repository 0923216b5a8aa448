package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"aibench/internal/gpusim"
	"aibench/internal/tensor"
)

// TestCanonicalFieldOrderInsensitive: Plans that differ only in how
// their benchmark selection is spelled — order, duplicates — must
// canonicalize to the same bytes, since the exact result cache keys on
// them.
func TestCanonicalFieldOrderInsensitive(t *testing.T) {
	a, err := Plan{Kind: RunSession, Benchmarks: []string{"DC-AI-C9", "DC-AI-C1", "DC-AI-C3"}, Seed: 7}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan{Kind: RunSession, Benchmarks: []string{"DC-AI-C1", "DC-AI-C3", "DC-AI-C9", "DC-AI-C1"}, Seed: 7}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("reordered+duplicated benchmark list changed canonical bytes:\n%s\n%s", a, b)
	}
	var decoded struct {
		Benchmarks []string `json:"benchmarks"`
	}
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatal(err)
	}
	want := []string{"DC-AI-C1", "DC-AI-C3", "DC-AI-C9"}
	if len(decoded.Benchmarks) != len(want) {
		t.Fatalf("canonical benchmarks = %v, want %v", decoded.Benchmarks, want)
	}
	for i := range want {
		if decoded.Benchmarks[i] != want[i] {
			t.Fatalf("canonical benchmarks = %v, want %v", decoded.Benchmarks, want)
		}
	}
}

// TestCanonicalDefaultsExplicit: a Plan relying on defaults must
// canonicalize identically to one spelling those defaults out — the
// kernel resolves to the process default, a scaling run's empty sweep
// becomes 1,2,4, a characterization's zero device becomes the Titan XP
// — so a defaulted resubmission hits the cache entry its explicit twin
// created.
func TestCanonicalDefaultsExplicit(t *testing.T) {
	active := tensor.ProcessKernels().Name()

	defaulted, err := Plan{Kind: RunScaling, Benchmarks: []string{"DC-AI-C1"}, Seed: 3}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Plan{Kind: RunScaling, Benchmarks: []string{"DC-AI-C1"}, Seed: 3,
		ShardSweep: []int{1, 2, 4}, Kernel: active}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(defaulted, explicit) {
		t.Fatalf("defaulted scaling plan differs from its explicit twin:\n%s\n%s", defaulted, explicit)
	}
	if !strings.Contains(string(defaulted), `"shard_sweep":[1,2,4]`) {
		t.Fatalf("default sweep not made explicit: %s", defaulted)
	}
	if !strings.Contains(string(defaulted), `"kernel":"`+active+`"`) {
		t.Fatalf("default kernel not resolved to %q: %s", active, defaulted)
	}

	char, err := Plan{Kind: RunCharacterize}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	charXP, err := Plan{Kind: RunCharacterize, Device: gpusim.TitanXP()}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(char, charXP) {
		t.Fatalf("zero device differs from explicit Titan XP:\n%s\n%s", char, charXP)
	}
}

// TestCanonicalDeterministicAcrossCalls: same plan, same bytes, every
// time — the property the cache key inherits.
func TestCanonicalDeterministicAcrossCalls(t *testing.T) {
	p := Plan{Kind: RunSession, Session: QuasiEntireSession, Benchmarks: []string{"DC-AI-C2", "DC-AI-C1"},
		Seed: 11, Epochs: 3, Shards: 2, Backend: "local", Workers: 2}
	first, err := p.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := p.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("call %d changed canonical bytes:\n%s\n%s", i+2, first, again)
		}
	}
	if strings.Contains(string(first), "\n") {
		t.Fatalf("canonical form is not a single line: %q", first)
	}
}

// TestCanonicalDistinguishesResultVisibleKnobs: knobs that change the
// run or its envelope bytes must change the canonical form — session
// kinds, seeds, and notably Backend "" vs "local", which RunMeta
// persists differently (omitted vs explicit field).
func TestCanonicalDistinguishesResultVisibleKnobs(t *testing.T) {
	base := Plan{Kind: RunSession, Benchmarks: []string{"DC-AI-C1"}, Seed: 1}
	canon := func(p Plan) string {
		t.Helper()
		b, err := p.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	ref := canon(base)
	seeded := base
	seeded.Seed = 2
	quasi := base
	quasi.Session = QuasiEntireSession
	local := base
	local.Backend = "local"
	for _, tc := range []struct {
		name string
		p    Plan
	}{
		{"seed", seeded},
		{"session kind", quasi},
		{"backend empty vs local", local},
	} {
		if got := canon(tc.p); got == ref {
			t.Fatalf("%s: canonical form failed to distinguish the plans: %s", tc.name, got)
		}
	}
}

// TestCanonicalRejectsUnnameableKinds: values with no canonical name
// are errors, mirroring NewRunner's validation.
func TestCanonicalRejectsUnnameableKinds(t *testing.T) {
	if _, err := (Plan{Kind: RunKind(99)}).Canonical(); err == nil {
		t.Fatal("expected an error for an out-of-range run kind")
	}
	if _, err := (Plan{Kind: RunSession, Session: SessionKind(42)}).Canonical(); err == nil {
		t.Fatal("expected an error for an out-of-range session kind")
	}
}
