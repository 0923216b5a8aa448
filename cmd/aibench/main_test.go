package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"aibench"
)

// cliArgsEnv, when set, makes the test binary run main with these
// space-separated arguments instead of the tests: how TestCharacterizeGPUFlag
// drives the CLI in a child process and reads its exit code.
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
