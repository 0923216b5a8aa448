package core

import (
	"encoding/json"
	"fmt"
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

// canonicalPlan is the normalized marshal shape of a Plan. Field order
// here is the canonical byte order; never reorder existing fields
// (every persisted cache key depends on it) — append new ones.
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
	switch p.Kind {
	case RunSession, RunCharacterize, RunScaling, RunReplay:
	default:
		return nil, fmt.Errorf("core: Canonical: Plan.Kind %d is not a run kind", int(p.Kind))
	}
	cp := canonicalPlan{
		Kind:      p.Kind.String(),
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
		switch p.Session {
		case EntireSession:
			cp.Session = "entire"
		case QuasiEntireSession:
			cp.Session = "quasi-entire"
		default:
			return nil, fmt.Errorf("core: Canonical: Plan.Session %d is not a session kind", int(p.Session))
		}
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
			cp.Device = gpusim.TitanXP().Name // NewRunner's default device, made explicit
		}
	}
	if cp.Workers < 0 {
		cp.Workers = 0 // every non-positive width means "GOMAXPROCS"
	}
	return json.Marshal(cp)
}
