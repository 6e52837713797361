package countingnet

// Smoke tests for the example programs: each one is built and executed via
// `go run` and must exit zero. The examples are deliverables, so they get
// the same regression protection as the library. Guarded by -short.

import (
	"os/exec"
	"testing"
	"time"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("example smoke tests build and run binaries")
	}
	examples := []string{
		"./examples/quickstart",
		"./examples/barrier",
		"./examples/idserver",
		"./examples/inconsistency",
		"./examples/linearizable",
		"./examples/monitor",
		"./examples/chaos",
		"./examples/netcounter",
	}
	for _, path := range examples {
		t.Run(path, func(t *testing.T) {
			cmd := exec.Command("go", "run", path)
			done := make(chan error, 1)
			var out []byte
			go func() {
				var err error
				out, err = cmd.CombinedOutput()
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s failed: %v\n%s", path, err, out)
				}
				if len(out) == 0 {
					t.Errorf("%s produced no output", path)
				}
			case <-time.After(4 * time.Minute):
				_ = cmd.Process.Kill()
				t.Fatalf("%s timed out", path)
			}
		})
	}
}

func TestCLIsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests build and run binaries")
	}
	clis := [][]string{
		{"run", "./cmd/netviz", "-net", "periodic", "-w", "8", "-split"},
		{"run", "./cmd/experiments", "-run", "F1", "-widths", "4,8"},
		{"run", "./cmd/perfsim", "-procs", "1,8", "-ops", "500"},
		{"run", "./cmd/countmon", "-w", "4", "-addr", "127.0.0.1:0", "-duration", "300ms"},
		{"run", "./cmd/countd", "-w", "4", "-listen", "127.0.0.1:0", "-duration", "300ms"},
	}
	for _, args := range clis {
		t.Run(args[1], func(t *testing.T) {
			out, err := exec.Command("go", args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v failed: %v\n%s", args, err, out)
			}
		})
	}
}
