package atomics

import (
	"math"
	"sync"
	"testing"
)

func TestTestAndSetExactlyOneWinner(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		var x uint32
		var wins int32
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if TestAndSet(&x) {
					mu.Lock()
					wins++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if wins != 1 {
			t.Fatalf("trial %d: %d winners", trial, wins)
		}
		if TestAndSet(&x) {
			t.Fatal("second TestAndSet on set flag succeeded")
		}
	}
}

func TestTestAndSetBitIndependentBits(t *testing.T) {
	bits := make([]uint32, 4)
	for i := 0; i < 128; i++ {
		if !TestAndSetBit(bits, i) {
			t.Fatalf("fresh bit %d reported already set", i)
		}
		if TestAndSetBit(bits, i) {
			t.Fatalf("set bit %d claimed again", i)
		}
		if !Bit(bits, i) {
			t.Fatalf("Bit(%d) false after set", i)
		}
	}
}

func TestTestAndSetBitConcurrent(t *testing.T) {
	bits := make([]uint32, 32)
	var wg sync.WaitGroup
	wins := make([]int32, 1024)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1024; i++ {
				if TestAndSetBit(bits, i) {
					// Each bit has exactly one winner; record without
					// synchronization is fine because of the uniqueness.
					wins[i]++
				}
			}
		}()
	}
	wg.Wait()
	for i, c := range wins {
		if c != 1 {
			t.Fatalf("bit %d won %d times", i, c)
		}
	}
}

func TestFetchAndAdd(t *testing.T) {
	var x uint32
	if FetchAndAdd32(&x, 5) != 0 || x != 5 {
		t.Fatal("FetchAndAdd32 wrong")
	}
	if FetchAndAdd32(&x, 3) != 5 || x != 8 {
		t.Fatal("FetchAndAdd32 second wrong")
	}
}

func TestWriteMinMax(t *testing.T) {
	x := uint32(10)
	if !WriteMin32(&x, 5) || x != 5 {
		t.Fatal("WriteMin32 improve failed")
	}
	if WriteMin32(&x, 7) || x != 5 {
		t.Fatal("WriteMin32 worsened")
	}
	if WriteMin32(&x, 5) {
		t.Fatal("WriteMin32 equal claimed success")
	}
	var z int64 = 100
	if !WriteMin64(&z, -5) || z != -5 {
		t.Fatal("WriteMin64 failed")
	}
	u := uint64(100)
	if !WriteMinU64(&u, 1) || u != 1 {
		t.Fatal("WriteMinU64 failed")
	}
}

func TestWriteMinConcurrentConverges(t *testing.T) {
	x := uint32(math.MaxUint32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(base uint32) {
			defer wg.Done()
			for i := uint32(0); i < 1000; i++ {
				WriteMin32(&x, base+i)
			}
		}(uint32(w * 1000))
	}
	wg.Wait()
	if x != 0 {
		t.Fatalf("concurrent WriteMin32 converged to %d", x)
	}
}

func TestFloat64Ops(t *testing.T) {
	var bits uint64
	StoreFloat64(&bits, 1.5)
	if LoadFloat64(&bits) != 1.5 {
		t.Fatal("Store/Load float64 broken")
	}
	if prev := AddFloat64Prev(&bits, 2.5); prev != 1.5 {
		t.Fatalf("AddFloat64Prev returned %v", prev)
	}
	if LoadFloat64(&bits) != 4.0 {
		t.Fatalf("value after add = %v", LoadFloat64(&bits))
	}
	AddFloat64(&bits, -4.0)
	if LoadFloat64(&bits) != 0 {
		t.Fatal("AddFloat64 negative delta broken")
	}
}

func TestAddFloat64ConcurrentSum(t *testing.T) {
	var bits uint64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				AddFloat64(&bits, 1)
			}
		}()
	}
	wg.Wait()
	if got := LoadFloat64(&bits); got != 80000 {
		t.Fatalf("concurrent float sum = %v", got)
	}
}

func TestAddFloat64PrevZeroDetection(t *testing.T) {
	// Exactly one concurrent adder must observe previous value zero.
	for trial := 0; trial < 50; trial++ {
		var bits uint64
		var zeros int32
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if AddFloat64Prev(&bits, 1) == 0 {
					mu.Lock()
					zeros++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if zeros != 1 {
			t.Fatalf("trial %d: %d adders saw zero", trial, zeros)
		}
	}
}

func TestCASLoadStore(t *testing.T) {
	var x uint32 = 1
	if !CAS32(&x, 1, 2) || Load32(&x) != 2 {
		t.Fatal("CAS32 failed")
	}
	if CAS32(&x, 1, 3) {
		t.Fatal("CAS32 succeeded with stale old")
	}
	Store32(&x, 9)
	if Load32(&x) != 9 {
		t.Fatal("Store32 failed")
	}
}
