package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"aibench"
)

// cliArgsEnv, when set, makes the test binary run main with these
// space-separated arguments instead of the tests: how the tests below
// drive the CLI in a child process and read its exit code.
const cliArgsEnv = "AIBENCH_TEST_CLI_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(cliArgsEnv); args != "" {
		os.Args = append([]string{"aibench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the aibench CLI with args in a child process and returns
// its stdout, stderr and exit code.
func runCLI(t *testing.T, args string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), cliArgsEnv+"="+args)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestCharacterizeGPUFlag: -gpu takes xp or rtx, spelled exactly so.
// Any other value — a different case included — is refused with the
// usage line and exit code 2 instead of characterizing on the Titan XP.
func TestCharacterizeGPUFlag(t *testing.T) {
	for _, c := range []struct {
		gpu    string
		device string
	}{{"xp", aibench.TitanXP().Name}, {"rtx", aibench.TitanRTX().Name}} {
		out, _, code := runCLI(t, "characterize DC-AI-C16 -gpu "+c.gpu)
		if code != 0 || !strings.Contains(out, c.device) {
			t.Errorf("-gpu %s: exit %d, output %q; want exit 0 and a %s characterization", c.gpu, code, out, c.device)
		}
	}
	for _, gpu := range []string{"RTX", "XP", "titan", "rtx2080"} {
		out, errOut, code := runCLI(t, "characterize DC-AI-C16 -gpu "+gpu)
		if code != 2 || !strings.Contains(errOut, "usage: aibench characterize") || out != "" {
			t.Errorf("-gpu %s: exit %d, stdout %q, stderr %q; want exit 2, the usage line and no output", gpu, code, out, errOut)
		}
	}
}

// TestReport: `report -from` rebuilds a live run's table byte for byte,
// heads each section when it renders several, and exports the stream's
// trace as Chrome trace-event JSON; the paper mode renders everything
// with or without "all", and misuse keeps its exit codes.
func TestReport(t *testing.T) {
	dir := t.TempDir()
	stream := filepath.Join(dir, "replay.jsonl")
	live, _, code := runCLI(t, "replay all -telemetry -out "+stream)
	if code != 0 {
		t.Fatalf("replay all: exit %d", code)
	}
	table, _, code := runCLI(t, "report -from "+stream+" replays")
	if code != 0 || table == "" || !strings.HasPrefix(live, table+"\ntotal replayed cost") {
		t.Errorf("report -from F replays: exit %d, output %q; want the live table of %q", code, table, live)
	}
	all, _, code := runCLI(t, "report -from "+stream)
	if code != 0 || !strings.HasPrefix(all, "==== replays ====\n"+table+"\n==== trace ====\n") {
		t.Errorf("report -from F: exit %d, output %q; want replays and trace sections", code, all)
	}

	chrome := filepath.Join(dir, "trace.json")
	if _, _, code := runCLI(t, "report -from "+stream+" -trace-out "+chrome); code != 0 {
		t.Fatalf("report -trace-out: exit %d", code)
	}
	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct{ Ph string }
	if err := json.Unmarshal(raw, &events); err != nil || len(events) == 0 {
		t.Fatalf("trace export %q: %v; want a JSON array of events", raw, err)
	}
	for _, e := range events {
		if e.Ph != "X" && e.Ph != "M" {
			t.Errorf("trace export has a %q event; want only X and M", e.Ph)
		}
	}

	if _, _, code := runCLI(t, "report -trace"); code != 2 {
		t.Errorf("report -trace without -from: exit %d, want 2", code)
	}
	if _, _, code := runCLI(t, "report nosuch"); code != 1 {
		t.Errorf("report nosuch: exit %d, want 1", code)
	}
	paper, _, code := runCLI(t, "report")
	if code != 0 || !strings.HasPrefix(paper, "==== table1 ====\n") {
		t.Errorf("report: exit %d, output %q; want every paper report under headers", code, paper)
	}
	if again, _, _ := runCLI(t, "report all"); again != paper {
		t.Errorf("report all and report differ:\n%s\n----\n%s", again, paper)
	}
}
