package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runFaulted runs a workload at -smoke size with one job's output
// corrupted on its way to the correctness check, through the same
// report path as the command line.
func runFaulted(t *testing.T, workload, fault string) (code int, res result) {
	t.Helper()
	var out bytes.Buffer
	code = report(config{workload: workload, seed: 1, smoke: true, fault: fault}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return code, res
}

// TestCorruptedHitFailsTheRun flips one byte of one cached reply: that
// job, and only that job, must count as failed, and the process must
// exit non-zero.
func TestCorruptedHitFailsTheRun(t *testing.T) {
	code, res := runFaulted(t, "served-replay", "corrupt-hit")
	if code == 0 || res.Correct || res.Failed != 1 {
		t.Errorf("exit code %d, correct %v, failed %d of %d; want a non-zero exit and exactly one failed job", code, res.Correct, res.Failed, res.Attempted)
	}
}

// TestPerturbedLossFailsTheRun moves one epoch's loss by one unit in
// the last place: bitwise equality with the reference must catch it.
func TestPerturbedLossFailsTheRun(t *testing.T) {
	code, res := runFaulted(t, "train-smallop", "perturb-loss")
	if code == 0 || res.Correct || res.Failed != 1 {
		t.Errorf("exit code %d, correct %v, failed %d of %d; want a non-zero exit and exactly one failed job", code, res.Correct, res.Failed, res.Attempted)
	}
}
