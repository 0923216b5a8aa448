package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"aibench/internal/gpusim"
)

// Plan canonicalization: the exact-result-cache seam. Two Plans that
// would produce the same run must marshal to the same bytes, so the
// benchmark server can key completed result streams by
// (suite_sha, canonical plan JSON) and serve identical submissions
// from the store with zero retraining. Canonicalization therefore
// normalizes everything JSON leaves free — field order is fixed by the
// struct, benchmark ids are sorted and deduplicated, and defaulted
// knobs are made explicit (the session kind's name, the resolved
// kernel, the scaling sweep, the characterization device) — while
// leaving result-visible bytes alone: Backend is kept verbatim rather
// than folded into "local" because RunMeta persists the empty string
// as an omitted field, so "" and "local" submissions genuinely produce
// different envelope streams.

// The names a plan's kinds and devices go by on the wire, indexed by
// their Go values: Canonical and RunKind.String print from these
// tables and ParsePlan reads through them, so the two directions cannot
// drift. The first device is the one a characterization defaults to.
var (
	runKindNames     = [...]string{RunSession: "session", RunCharacterize: "characterize", RunScaling: "scaling", RunReplay: "replay"}
	sessionKindNames = [...]string{EntireSession: "entire", QuasiEntireSession: "quasi-entire"}
	wireDevices      = [...]gpusim.Device{gpusim.TitanXP(), gpusim.TitanRTX()}
)

// nameIndex inverts a name table; the empty name is the zero value's.
func nameIndex(names []string, name string) (int, bool) {
	if name == "" {
		return 0, true
	}
	for i, n := range names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// canonicalPlan is the wire shape of a Plan: what Canonical marshals,
// normalized, and what ParsePlan decodes with every knob optional.
// Field order here is the canonical byte order; never reorder existing
// fields (every persisted cache key depends on it) — append new ones.
type canonicalPlan struct {
	Kind       string   `json:"kind"`
	Benchmarks []string `json:"benchmarks"`
	Session    string   `json:"session,omitempty"`
	Seed       int64    `json:"seed"`
	Epochs     int      `json:"epochs"`
	Shards     int      `json:"shards"`
	ShardSweep []int    `json:"shard_sweep,omitempty"`
	Kernel     string   `json:"kernel"`
	TuneFrom   string   `json:"tune_from,omitempty"`
	Backend    string   `json:"backend,omitempty"`
	Workers    int      `json:"workers"`
	Device     string   `json:"device,omitempty"`
	Telemetry  bool     `json:"telemetry"`
}

// Canonical returns the plan's deterministic normalized JSON: one line,
// fixed field order, sorted deduplicated benchmark ids, defaults made
// explicit. It is pure normalization — NewRunner still owns validation
// — but rejects out-of-range Kind/Session values because they have no
// canonical name. An empty benchmark list stays empty: it means "the
// whole roster", and the cache key's suite_sha already pins what that
// roster is.
func (p Plan) Canonical() ([]byte, error) {
	if p.Kind < 0 || int(p.Kind) >= len(runKindNames) {
		return nil, fmt.Errorf("core: Canonical: Plan.Kind %d is not a run kind", int(p.Kind))
	}
	cp := canonicalPlan{
		Kind:      runKindNames[p.Kind],
		Seed:      p.Seed,
		Epochs:    p.Epochs,
		Shards:    p.Shards,
		Kernel:    p.kernelName(), // resolved the way NewRunner and Runner.Meta resolve it
		TuneFrom:  p.TuneFrom,
		Backend:   p.Backend,
		Workers:   p.Workers,
		Telemetry: p.Telemetry,
	}
	ids := append([]string(nil), p.Benchmarks...)
	sort.Strings(ids)
	cp.Benchmarks = ids[:0:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			cp.Benchmarks = append(cp.Benchmarks, id)
		}
	}
	if cp.Benchmarks == nil {
		cp.Benchmarks = []string{}
	}
	if p.Kind == RunSession {
		if p.Session < 0 || int(p.Session) >= len(sessionKindNames) {
			return nil, fmt.Errorf("core: Canonical: Plan.Session %d is not a session kind", int(p.Session))
		}
		cp.Session = sessionKindNames[p.Session]
	}
	if p.Kind == RunScaling {
		cp.ShardSweep = p.ShardSweep
		if len(cp.ShardSweep) == 0 {
			cp.ShardSweep = []int{1, 2, 4} // NewRunner's default sweep, made explicit
		}
	}
	if p.Kind == RunCharacterize {
		cp.Device = p.Device.Name
		if cp.Device == "" {
			cp.Device = wireDevices[0].Name // NewRunner's default device, made explicit
		}
	}
	if cp.Workers < 0 {
		cp.Workers = 0 // every non-positive width means "GOMAXPROCS"
	}
	return json.Marshal(cp)
}

// ParsePlan is Canonical's inverse: it decodes one wire plan from r —
// the canonical shape with every knob optional, names spelled the way
// the CLI spells them, zero values meaning the Plan defaults — and
// rejects unknown fields and unknown kind, session and device names.
// Like Canonical it only translates; NewRunner still owns validation.
func ParsePlan(r io.Reader) (Plan, error) {
	var cp canonicalPlan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cp); err != nil {
		return Plan{}, err
	}
	p := Plan{
		Benchmarks: cp.Benchmarks,
		Seed:       cp.Seed,
		Epochs:     cp.Epochs,
		Shards:     cp.Shards,
		ShardSweep: cp.ShardSweep,
		Kernel:     cp.Kernel,
		TuneFrom:   cp.TuneFrom,
		Backend:    cp.Backend,
		Workers:    cp.Workers,
		Telemetry:  cp.Telemetry,
	}
	kind, ok := nameIndex(runKindNames[:], cp.Kind)
	if !ok {
		return p, fmt.Errorf("unknown run kind %q (want session, characterize, scaling, or replay)", cp.Kind)
	}
	p.Kind = RunKind(kind)
	session, ok := nameIndex(sessionKindNames[:], cp.Session)
	if !ok {
		return p, fmt.Errorf("unknown session kind %q (want entire or quasi-entire)", cp.Session)
	}
	p.Session = SessionKind(session)
	for i := range wireDevices {
		if wireDevices[i].Name == cp.Device {
			p.Device = wireDevices[i]
		}
	}
	if p.Device.Name != cp.Device { // no name stays the zero device: the default
		return p, fmt.Errorf("unknown device %q (want %q or %q)", cp.Device, wireDevices[0].Name, wireDevices[1].Name)
	}
	return p, nil
}
