package aibench_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"aibench"
)

var updateDigests = flag.Bool("update", false, "rewrite this host's entry of testdata/digests.json")

const digestFile = "testdata/digests.json"

// expArg is an argument at which the two amd64 math.Exp paths (the
// VFMADD path taken on a CPU with FMA, and the path taken without it)
// round differently. It is a variable so the call is not folded.
var expArg = -3.89

// expPath names the math.Exp implementation this host runs: the
// architecture and the bits of math.Exp at expArg. Training numbers
// reach math.Exp (tanh, sigmoid, the BCE loss), so a pinned digest
// holds only for hosts that take the same path; the table keeps one
// entry per path. On amd64 the FMA path gives 3f94ef9ff25a7737 and
// GODEBUG=cpu.fma=off gives 3f94ef9ff25a7738.
func expPath() string {
	return fmt.Sprintf("%s exp(%v)=%016x", runtime.GOARCH, expArg, math.Float64bits(math.Exp(expArg)))
}

// digestRuns are the pinned plans: every benchmark's two-epoch
// quasi-entire session under each kernel, and at two local shards;
// the traced sessions of C1 and C16, serial and at two shards on
// each backend, whose trace records pin the deterministic plane — the
// process backend's phase spans and its children's counters with it;
// every benchmark's characterization on each simulated GPU; and every
// benchmark's replayed paper-scale session.
func digestRuns() map[string]aibench.Plan {
	base := aibench.Plan{Kind: aibench.RunSession, Session: aibench.QuasiEntireSession, Seed: 42, Epochs: 2, Workers: 1}
	blocked, naive, sharded := base, base, base
	blocked.Kernel, naive.Kernel = "blocked", "naive"
	sharded.Shards, sharded.Backend = 2, "local"
	traced := base
	traced.Benchmarks, traced.Telemetry = []string{"DC-AI-C1", "DC-AI-C16"}, true
	tracedLocal, tracedProcess := traced, traced
	tracedLocal.Shards, tracedLocal.Backend = 2, "local"
	tracedProcess.Shards, tracedProcess.Backend = 2, "process"
	charXP := aibench.Plan{Kind: aibench.RunCharacterize, Device: aibench.TitanXP(), Workers: 1}
	charRTX := charXP
	charRTX.Device = aibench.TitanRTX()
	replay := aibench.Plan{Kind: aibench.RunReplay, Seed: 42}
	return map[string]aibench.Plan{
		"blocked": blocked, "naive": naive, "local-shards-2": sharded,
		"traced": traced, "traced-local-shards-2": tracedLocal, "traced-process-shards-2": tracedProcess,
		"characterize-xp": charXP, "characterize-rtx": charRTX,
		"replay": replay,
	}
}

// recordDigests runs p and returns the sha256 of each record's
// persisted data — the bytes `aibench run-all -out` writes, less the
// run header — keyed by benchmark id for a session, characterization
// or replay record and by "trace" for the run's trace record. The wall-clock runmetrics record
// is not pinned.
func recordDigests(t *testing.T, s *aibench.Suite, p aibench.Plan) map[string]string {
	t.Helper()
	runner, err := s.NewRunner(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := runner.Run(context.Background(), aibench.NewResultWriter(&buf, runner.Meta()).Write); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var env struct {
			Kind string          `json:"kind"`
			Data json.RawMessage `json:"data"`
		}
		if err := dec.Decode(&env); err != nil {
			t.Fatal(err)
		}
		key := env.Kind
		switch env.Kind {
		case "runmetrics":
			continue
		case "session", "characterization", "replay":
			var id struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(env.Data, &id); err != nil || id.ID == "" {
				t.Fatalf("unexpected %s record %s", env.Kind, env.Data)
			}
			key = id.ID
		case "trace":
		default:
			t.Fatalf("unexpected %s record %s", env.Kind, env.Data)
		}
		sum := sha256.Sum256(env.Data)
		out[key] = hex.EncodeToString(sum[:])
	}
	return out
}

// TestSessionDigests pins the training numbers: the digest of every
// session record of the pinned plans must equal the table entry for
// this host's math.Exp path. A change that means to move numbers
// rewrites the entry with `go test -run TestSessionDigests -update .`
// (and under GODEBUG=cpu.fma=off for the other amd64 entry), and the
// table's diff names the records that moved.
func TestSessionDigests(t *testing.T) {
	s := aibench.NewSuite()
	got := map[string]map[string]string{}
	for name, p := range digestRuns() {
		got[name] = recordDigests(t, s, p)
	}
	table := map[string]map[string]map[string]string{}
	raw, err := os.ReadFile(digestFile)
	if err != nil && !(*updateDigests && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	if err == nil {
		if err := json.Unmarshal(raw, &table); err != nil {
			t.Fatalf("%s: %v", digestFile, err)
		}
	}
	host := expPath()
	if *updateDigests {
		table[host] = got
		out, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := table[host]
	if !ok {
		t.Fatalf("%s pins no digests for math.Exp path %q; pin them with -update", digestFile, host)
	}
	var moved []string
	for name, digests := range got {
		for id, d := range digests {
			if want[name][id] != d {
				moved = append(moved, name+" "+id)
			}
		}
		for id := range want[name] {
			if _, ok := digests[id]; !ok {
				moved = append(moved, name+" "+id+" (not run)")
			}
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			moved = append(moved, name+" (no such plan)")
		}
	}
	if len(moved) > 0 {
		slices.Sort(moved)
		t.Errorf("records differ from %s (math.Exp path %q):\n  %s", digestFile, host, strings.Join(moved, "\n  "))
	}
}
