package fabric

import (
	"testing"
	"unsafe"
)

// FuzzFifo drives the ring and a plain-slice model with one op sequence —
// push, pop and popTail — across wraps and growths. After every op the two
// hold the same elements in the same order (read through at), every slot
// outside the live range is zero (popped values are not kept reachable), and
// the capacity is a power of two at most twice the queue's high water, and at
// least 4.
func FuzzFifo(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 1, 1, 0, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q fifo[int]
		var model []int
		high, next := 0, 1
		for i := range ops {
			switch ops[i] % 3 {
			case 0:
				q.push(next)
				model = append(model, next)
				next++
			case 1:
				if len(model) > 0 {
					if got := q.pop(); got != model[0] {
						t.Fatalf("op %d: pop %d, model %d", i, got, model[0])
					}
					model = model[1:]
				}
			case 2:
				if n := len(model); n > 0 {
					if got := q.popTail(); got != model[n-1] {
						t.Fatalf("op %d: popTail %d, model %d", i, got, model[n-1])
					}
					model = model[:n-1]
				}
			}
			high = max(high, len(model))
			if q.len() != len(model) {
				t.Fatalf("op %d: len %d, model %d", i, q.len(), len(model))
			}
			for k, v := range model {
				if *q.at(k) != v {
					t.Fatalf("op %d: at(%d) %d, model %d", i, k, *q.at(k), v)
				}
			}
			live := 0
			for _, v := range q.buf {
				if v != 0 {
					live++
				}
			}
			if c := len(q.buf); live != len(model) || c&(c-1) != 0 || high > 0 && (c < 4 || c > max(4, 2*high)) {
				t.Fatalf("op %d: capacity %d holds %d non-zero slots for %d queued, high water %d", i, c, live, len(model), high)
			}
		}
	})
}

// TestQueueRecordSizes pins the per-packet records at their packed sizes. A
// pipe slot, a staged slot and a send record are what a link holds per
// waiting packet, so a field that widens one is paid once per packet in
// flight: 36 bytes for a send record (int32 payload and count, 4-byte fields
// first) and 16 for a pipe slot.
func TestQueueRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(sendRun{}); got > 40 {
		t.Errorf("sendRun is %d bytes, want at most 40", got)
	}
	if got := unsafe.Sizeof(pipeSlot{}); got != 16 {
		t.Errorf("pipeSlot is %d bytes, want 16", got)
	}
}
