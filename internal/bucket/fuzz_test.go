package bucket

import (
	"slices"
	"testing"
)

// FuzzBuckets drives the structure with a decoded sequence of Update
// batches and NextBucket calls and checks every extraction against a naive
// model: a filed id's effective tick is max(tick(fn(id)), pointer), where
// the pointer is the tick last extracted, and each extraction returns
// exactly the filed ids at the minimum effective tick, each once.
//
// Input bytes: n (≤ 64 ids), the window size (1, 2, 4 or 128), the order,
// maxBkt, then one initial bucket per id, then operations. An operation
// byte with its top bit set is a NextBucket; otherwise its low six bits
// give a batch length, followed by (id, bucket) byte pairs that set fn and
// are filed as one Update. Bucket byte 255 means Nil; any other value v
// maps to bucket 4v, so moves land beyond the window in both directions.
func FuzzBuckets(f *testing.F) {
	// The away-and-back case: one id in bucket 4, moved to 8, moved back
	// to 4, inside a 128-bucket window.
	f.Add([]byte{0, 3, 0, 25, 1, 1, 0, 2, 1, 0, 1, 0x80, 0x80})
	f.Add([]byte{8, 2, 0, 0, 1, 2, 3, 4, 5, 6, 7, 255, 0x80, 3, 0, 0, 0, 9, 7, 1, 0x80, 0x80, 0x80, 0x80})
	f.Add([]byte{5, 0, 1, 200, 3, 3, 3, 255, 100, 2, 1, 250, 4, 0, 0x80, 2, 0, 50, 0, 60, 0x80, 0x80, 0x80})
	f.Add([]byte{64, 3, 0, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			c := data[0]
			data = data[1:]
			return c, true
		}
		hdr := make([]byte, 4)
		for i := range hdr {
			c, ok := next()
			if !ok {
				return
			}
			hdr[i] = c
		}
		n := int(hdr[0]%64) + 1
		numOpen := []int{1, 2, 4, 128}[hdr[1]%4]
		order := Order(hdr[2] % 2)
		maxBkt := 4 * uint32(hdr[3])
		decode := func(c byte) uint32 {
			if c == 255 {
				return Nil
			}
			return 4 * uint32(c)
		}
		fn := make([]uint32, n)
		for i := range fn {
			c, _ := next()
			fn[i] = decode(c)
		}
		tick := func(bkt uint32) uint32 {
			if order == Increasing {
				return bkt
			}
			return maxBkt - min(bkt, maxBkt)
		}

		b := New(sched, n, numOpen, order, maxBkt, func(i uint32) uint32 { return fn[i] })
		filed := make([]bool, n)
		eff := make([]uint32, n)
		for i := range fn {
			if fn[i] != Nil {
				filed[i], eff[i] = true, tick(fn[i])
			}
		}
		ptr := uint32(0)
		for {
			op, ok := next()
			if !ok {
				break
			}
			if op&0x80 == 0 {
				batch := make([]uint32, 0, op&0x3f)
				for range op & 0x3f {
					id, ok1 := next()
					c, ok2 := next()
					if !ok1 || !ok2 {
						break
					}
					v := uint32(id) % uint32(n)
					fn[v] = decode(c)
					batch = append(batch, v)
				}
				for _, v := range batch {
					filed[v] = fn[v] != Nil
					if filed[v] {
						eff[v] = max(tick(fn[v]), ptr)
					}
				}
				b.Update(batch)
				continue
			}
			bkt, ids := b.NextBucket()
			var want []uint32
			minTick := Nil
			for v := range filed {
				if filed[v] && eff[v] < minTick {
					minTick = eff[v]
				}
			}
			for v := range filed {
				if filed[v] && eff[v] == minTick {
					want = append(want, uint32(v))
					filed[v] = false
				}
			}
			if minTick == Nil {
				if bkt != Nil || ids != nil {
					t.Fatalf("empty model, got bucket %d ids %v", bkt, ids)
				}
				return // the pointer after exhaustion is not part of the contract
			}
			wantBkt := minTick
			if order == Decreasing {
				wantBkt = maxBkt - minTick
			}
			got := slices.Clone(ids)
			slices.Sort(got)
			if bkt != wantBkt || !slices.Equal(got, want) {
				t.Fatalf("got bucket %d ids %v, want bucket %d ids %v", bkt, ids, wantBkt, want)
			}
			ptr = minTick
		}
	})
}
