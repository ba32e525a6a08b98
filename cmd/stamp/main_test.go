package main

import (
	"errors"
	"os"
	"os/exec"
	"testing"
)

// runAsStamp, when set in the environment, makes the test binary run
// main instead of the tests, so TestExitStatus can run it as `stamp`.
const runAsStamp = "STAMP_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsStamp) == "1" {
		main()
	}
	os.Exit(m.Run())
}

// TestExitStatus: the process exit status is cli.Main's return value —
// 0 success, 1 failure, 2 usage. internal/cli's TestExitCodes pins
// which command gets which code; this pins that the binary hands the
// code to the operating system.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
		want int
	}{
		{"ok", []string{"run", "partial", "-n", "100"}, 0},
		{"failure", []string{"run", "transient", "-scenario", "meteor-strike", "-n", "50"}, 1},
		{"usage", []string{"run", "no-such-experiment"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.argv...)
			cmd.Env = append(os.Environ(), runAsStamp+"=1")
			err := cmd.Run()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.want {
				t.Errorf("stamp %v: exit status %d, want %d", tc.argv, code, tc.want)
			}
		})
	}
}
