package serve

import "testing"

// TestParseInputSizeGuardSeesClampedBA pins that a ba spec whose n is below
// k+1 is judged by the size its build would really have: ba raises n to
// k+1, so "ba:n=0,k=1048576" declares about 2^40 edges and the guard must
// refuse it without building anything.
func TestParseInputSizeGuardSeesClampedBA(t *testing.T) {
	s := &Server{cfg: Config{MaxSourceScale: 24}}
	for _, spec := range []string{"ba:n=0,k=1048576", "ba:n=1,k=100000"} {
		if _, _, _, err := s.parseInput(spec, nil); err == nil {
			t.Errorf("parseInput(%q) admitted under MaxSourceScale 24", spec)
		}
	}
	if _, _, _, err := s.parseInput("ba:n=1000,k=4", nil); err != nil {
		t.Errorf("parseInput(ba:n=1000,k=4): %v", err)
	}
}
