// Package leakcheck fails a test binary whose tests leave goroutines
// running. A package opts in from its TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle bounds the wait for goroutines to exit after the tests: idle
// scheduler workers exit 250 ms after their last task, and closed HTTP
// connections unwind asynchronously.
const settle = 5 * time.Second

// Main runs the tests, then polls until runtime.NumGoroutine is back to its
// value before them. If it is not within settle, Main prints every
// goroutine's stack and exits nonzero. A failing run exits with its own
// code unchecked, and so does a fuzzing run: the fuzzing engine starts the
// os/signal loop, which never exits.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		deadline := time.Now().Add(settle)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlived the tests (%d before them):\n\n%s\n", n-before, before, buf)
			code = 1
		}
	}
	os.Exit(code)
}
