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
// kernel resolves to blocked, a scaling run's empty sweep
// becomes 1,2,4, a characterization's zero device becomes the Titan XP
// — so a defaulted resubmission hits the cache entry its explicit twin
// created.
func TestCanonicalDefaultsExplicit(t *testing.T) {
	active := tensor.DefaultKernel

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

// wirePlans spans what the wire can say: every kind, crossed with the
// knobs that kind reads (session kinds, devices, sweeps) and a few it
// shares with the others, all pairwise distinct as runs.
func wirePlans() []Plan {
	var plans []Plan
	for _, seed := range []int64{0, 7} {
		for _, ids := range [][]string{nil, {"DC-AI-C9", "DC-AI-C1", "DC-AI-C9"}} {
			base := Plan{Benchmarks: ids, Seed: seed}
			for _, sk := range []SessionKind{EntireSession, QuasiEntireSession} {
				p := base
				p.Kind, p.Session, p.Epochs, p.Shards, p.Backend, p.Telemetry = RunSession, sk, 3, 2, "process", seed != 0
				plans = append(plans, p)
			}
			for _, dev := range wireDevices {
				p := base
				p.Kind, p.Device, p.Workers = RunCharacterize, dev, 4
				plans = append(plans, p)
			}
			for _, sweep := range [][]int{{1, 2, 4}, {1, 3}} {
				p := base
				p.Kind, p.ShardSweep, p.Kernel = RunScaling, sweep, "naive"
				plans = append(plans, p)
			}
			p := base
			p.Kind, p.TuneFrom = RunReplay, "tune.jsonl"
			plans = append(plans, p)
		}
	}
	return plans
}

// TestParsePlanInvertsCanonical: the canonical form is a fixed point of
// parse-then-canonicalize for every kind — so the `plan` a GET
// /jobs/{id} returns, resubmitted, is a cache hit — and plans that
// differ as runs (session kinds, devices, sweeps, seeds, selections)
// never collide on the way.
func TestParsePlanInvertsCanonical(t *testing.T) {
	seen := map[string]int{}
	for i, p := range wirePlans() {
		canonical, err := p.Canonical()
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if j, dup := seen[string(canonical)]; dup {
			t.Fatalf("plans %d and %d collide on %s", j, i, canonical)
		}
		seen[string(canonical)] = i
		parsed, err := ParsePlan(bytes.NewReader(canonical))
		if err != nil {
			t.Fatalf("plan %d: canonical form %s does not parse: %v", i, canonical, err)
		}
		again, err := parsed.Canonical()
		if err != nil {
			t.Fatalf("plan %d: reparsed plan does not canonicalize: %v", i, err)
		}
		if !bytes.Equal(canonical, again) {
			t.Fatalf("plan %d: canonical form is not a fixed point:\n%s\n%s", i, canonical, again)
		}
		if parsed.Kind != p.Kind {
			t.Fatalf("plan %d: kind %v came back as %v", i, p.Kind, parsed.Kind)
		}
	}
}

// TestParsePlanDefaultsAndRejections: an empty object is the default
// plan; names the tables do not hold, and fields the wire shape does
// not have, are errors that say which.
func TestParsePlanDefaultsAndRejections(t *testing.T) {
	p, err := ParsePlan(strings.NewReader(`{}`))
	if err != nil || p.Kind != RunSession || p.Session != EntireSession || p.Device.Name != "" {
		t.Fatalf("empty plan parsed as %+v, err %v", p, err)
	}
	for body, want := range map[string]string{
		`{"kind":"warmup"}`:     `unknown run kind "warmup"`,
		`{"session":"forever"}`: `unknown session kind "forever"`,
		`{"device":"H100"}`:     `unknown device "H100"`,
		`{"profile":true}`:      `unknown field "profile"`,
		`{nope`:                 `invalid character`,
	} {
		if _, err := ParsePlan(strings.NewReader(body)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want mention of %s", body, err, want)
		}
	}
}

// FuzzParsePlan hardens the server's front door: POST /jobs feeds the
// request body straight into ParsePlan. Whatever bytes arrive, it must
// answer with a plan or an error — never a panic — and a plan it
// accepts must canonicalize to bytes that parse back to themselves,
// or a job's reported plan would not name the job's cache entry.
func FuzzParsePlan(f *testing.F) {
	for _, p := range wirePlans() {
		canonical, err := p.Canonical()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(canonical)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":"characterize","device":"H100"}`))
	f.Add([]byte(`{"benchmarks":null,"shard_sweep":[0,-1],"workers":-9,"seed":-1}`))
	f.Add([]byte(`{"kind":"session","session":"quasi-entire","epochs":1e3}`))
	f.Add([]byte(`{"kind":"session"}{"kind":"replay"}`))
	f.Add([]byte(`{"profile":true}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(bytes.NewReader(data))
		if err != nil {
			return // rejecting the input is fine; panicking is not
		}
		canonical, err := p.Canonical()
		if err != nil {
			t.Fatalf("parsed plan %+v does not canonicalize: %v", p, err)
		}
		parsed, err := ParsePlan(bytes.NewReader(canonical))
		if err != nil {
			t.Fatalf("canonical form %s does not parse: %v", canonical, err)
		}
		again, err := parsed.Canonical()
		if err != nil || !bytes.Equal(canonical, again) {
			t.Fatalf("canonical form is not a fixed point (err %v):\n%s\n%s", err, canonical, again)
		}
	})
}
