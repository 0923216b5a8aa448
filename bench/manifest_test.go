package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary when the
// harness re-executes itself: as a process-backend replica or as the
// reference-kernel child.
func TestMain(m *testing.M) {
	if served, err := serveChild(); served {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// keysOf decodes a JSON object and returns its keys, sorted.
func keysOf(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("not an object: %v: %s", err, raw)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func wantKeys(t *testing.T, what string, raw json.RawMessage, want ...string) {
	t.Helper()
	sort.Strings(want)
	if got := keysOf(t, raw); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s has keys %v, want exactly %v", what, got, want)
	}
}

// TestManifestSchema holds BENCHMARK.json to the driver's schema: a
// file outside any of these limits is refused before a single run.
func TestManifestSchema(t *testing.T) {
	const path = "../BENCHMARK.json"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	wantKeys(t, "BENCHMARK.json", data, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
	var raw struct {
		Workloads []json.RawMessage `json:"workloads"`
		EndToEnd  []json.RawMessage `json:"end_to_end"`
		PerLayer  []json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for i, w := range raw.Workloads {
		wantKeys(t, fmt.Sprintf("workloads[%d]", i), w, "name", "why")
	}
	for i, m := range raw.EndToEnd {
		wantKeys(t, fmt.Sprintf("end_to_end[%d]", i), m, "name", "unit", "better", "bound")
	}
	for i, m := range raw.PerLayer {
		wantKeys(t, fmt.Sprintf("per_layer[%d]", i), m, "name", "unit", "better")
	}

	man, err := loadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(man.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings, want 1..32", n)
	}
	for _, arg := range man.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command string %q is too long, absolute, or leads out of the repository", arg)
		}
	}
	if n := len(man.Paths); n < 1 || n > 16 {
		t.Errorf("paths has %d entries, want 1..16", n)
	}
	for _, p := range man.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
		if fi, err := os.Stat(filepath.Join("..", p)); err != nil || !fi.IsDir() {
			t.Errorf("path %q is not a directory of the repository: %v", p, err)
		}
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", man.RunSeconds)
	}
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not 1..64 of [A-Za-z0-9_.-] starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range man.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range append(append([]manifestMetric(nil), man.EndToEnd...), man.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is not 1..16 of [A-Za-z0-9_/%%.-]", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range man.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range man.EndToEnd {
				if m.Bound != nil && o.Bound != nil && *o.Bound > *m.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", o.Name, *o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error(`no end-to-end metric "setup_s" with unit "s" and better "lower"`)
	}

	// The driver makes 4 + 22 × workloads runs and allows them 3420 s
	// in all, builds included. A run is its window plus set-up and
	// build check, about 8 s here; two cold builds take about 30 s each.
	runs := 4 + 22*len(man.Workloads)
	if total := runs*(man.RunSeconds+8) + 60; total > 3420 {
		t.Errorf("%d runs of %d+8 s and two builds come to %d s, over the 3420 s cap", runs, man.RunSeconds, total)
	}
}

// TestManifestMatchesHarness holds the declaration to the code: the
// same workloads in the same order, the same metric names and units.
func TestManifestMatchesHarness(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range man.Workloads {
		declared = append(declared, w.Name)
	}
	if got := strings.Join(declared, ", "); got != workloadNames() {
		t.Errorf("manifest workloads %q, harness workloads %q", got, workloadNames())
	}
	same := func(kind string, man []manifestMetric, defs []metricDef) {
		if len(man) != len(defs) {
			t.Errorf("%s: manifest declares %d metrics, harness emits %d", kind, len(man), len(defs))
			return
		}
		for i := range defs {
			if man[i].Name != defs[i].name || man[i].Unit != defs[i].unit {
				t.Errorf("%s[%d]: manifest says %s (%s), harness says %s (%s)", kind, i, man[i].Name, man[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", man.EndToEnd, endToEnd)
	same("per_layer", man.PerLayer, perLayer)
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at -smoke size
// in both modes through the same path as the command line and checks
// the result line: every declared metric and no other, a finite value
// and a unit each, at least one job, none failed.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var out bytes.Buffer
			code := report(config{workload: w.name, seed: 1, trace: trace, smoke: true}, &out)
			if code != 0 {
				t.Errorf("%s trace=%v: exit code %d\n%s", w.name, trace, code, out.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			wantKeys(t, w.name+" result", json.RawMessage(lines[len(lines)-1]), "correct", "attempted", "failed", "metrics")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not a result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct %v, attempted %d, failed %d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := res.Metrics[d.name]
				if !ok || mv.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", w.name, trace, d.name, mv.Unit, d.unit)
				}
				if !trace && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.name, mv.Value)
				}
			}
		}
	}
}
