package parallel

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }
