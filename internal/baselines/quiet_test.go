package baselines

import (
	"io"
	"os"
	"testing"

	"hhgb/internal/powerlaw"
)

// TestEnginesQuiet pins that no engine chatters on stdout or stderr
// during normal operation: benchmark harnesses parse their own output,
// and an engine that logs per-batch would both corrupt piped results and
// distort the timing it exists to measure.
func TestEnginesQuiet(t *testing.T) {
	// The engines run in-process, so swap the real file descriptors'
	// os.File handles; restore them whatever happens.
	capture := func() (restore func() (stdout, stderr string)) {
		or, ow, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		er, ew, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		oldOut, oldErr := os.Stdout, os.Stderr
		os.Stdout, os.Stderr = ow, ew
		return func() (string, string) {
			os.Stdout, os.Stderr = oldOut, oldErr
			ow.Close()
			ew.Close()
			ob, _ := io.ReadAll(or)
			eb, _ := io.ReadAll(er)
			or.Close()
			er.Close()
			return string(ob), string(eb)
		}
	}

	gen, err := powerlaw.NewRMAT(10, 42)
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]Edge, 512)
	for i := range edges {
		edges[i] = gen.Edge()
	}

	for name, factory := range Registry(1 << 10) {
		t.Run(name, func(t *testing.T) {
			restore := capture()
			runErr := func() error {
				e, err := factory()
				if err != nil {
					return err
				}
				for i := 0; i < len(edges); i += 128 {
					if err := e.Ingest(edges[i : i+128]); err != nil {
						return err
					}
				}
				if err := e.Flush(); err != nil {
					return err
				}
				return e.Close()
			}()
			stdout, stderr := restore()
			if runErr != nil {
				t.Fatal(runErr)
			}
			if stdout != "" {
				t.Errorf("engine %s wrote to stdout: %q", name, stdout)
			}
			if stderr != "" {
				t.Errorf("engine %s wrote to stderr: %q", name, stderr)
			}
		})
	}
}
