package packet

import "testing"

func TestPSNBeforeAfterBasic(t *testing.T) {
	if !PSN(1).Before(2) {
		t.Fatal("1 must be before 2")
	}
	if PSN(2).Before(1) {
		t.Fatal("2 must not be before 1")
	}
	if PSN(5).Before(5) || PSN(5).After(5) {
		t.Fatal("a PSN is neither before nor after itself")
	}
	if !PSN(2).After(1) {
		t.Fatal("2 must be after 1")
	}
}

func TestPSNWraparound(t *testing.T) {
	last := PSN(psnMask) // 0xFFFFFF
	if got := last.Next(); got != 0 {
		t.Fatalf("Next at wrap: got %d want 0", got)
	}
	if !last.Before(0) {
		t.Fatal("0xFFFFFF must be before 0 across the wrap")
	}
	if !PSN(0).After(last) {
		t.Fatal("0 must be after 0xFFFFFF across the wrap")
	}
	if PSN(0).Before(last) {
		t.Fatal("0 must not be before 0xFFFFFF")
	}
	// A raw uint32 `<` would get both of the above wrong — that is the bug
	// class the psn-compare analyzer exists to prevent.
	if !last.Add(10).Before(20) {
		t.Fatal("wrapped window comparison failed")
	}
}

func TestPSNDiff(t *testing.T) {
	cases := []struct {
		p, q PSN
		want int32
	}{
		{10, 3, 7},
		{3, 10, -7},
		{0, psnMask, 1},               // 0 is one after 0xFFFFFF
		{psnMask, 0, -1},              // and 0xFFFFFF one before 0
		{5, 5, 0},                     // equal
		{psnHalf - 1, 0, psnHalf - 1}, // largest positive distance
	}
	for _, c := range cases {
		if got := c.p.Diff(c.q); got != c.want {
			t.Errorf("Diff(%d, %d) = %d, want %d", c.p, c.q, got, c.want)
		}
	}
}

func TestPSNAdd(t *testing.T) {
	if got := PSN(0).Add(-1); got != psnMask {
		t.Fatalf("Add(-1) at 0: got %#x want %#x", uint32(got), uint32(psnMask))
	}
	if got := PSN(psnMask).Add(1); got != 0 {
		t.Fatalf("Add(1) at wrap: got %d want 0", got)
	}
	if got := PSN(100).Add(23); got != 123 {
		t.Fatalf("Add: got %d want 123", got)
	}
}

func TestPSNModAndTrunc(t *testing.T) {
	if got := PSN(10).Mod(4); got != 2 {
		t.Fatalf("Mod: got %d want 2", got)
	}
	if got := PSN(0x123456).Trunc(); got != 0x56 {
		t.Fatalf("Trunc: got %#x want 0x56", got)
	}
	if got := NewPSN(0xFF123456).Uint32(); got != 0x123456 {
		t.Fatalf("NewPSN must mask to 24 bits: got %#x", got)
	}
}

// TestPSNTotalOrderWithinWindow checks antisymmetry and transitivity over a
// window that straddles the wrap point.
func TestPSNTotalOrderWithinWindow(t *testing.T) {
	base := PSN(psnMask - 50)
	var win []PSN
	for i := 0; i < 100; i++ {
		win = append(win, base.Add(i))
	}
	for i, a := range win {
		for j, b := range win {
			wantBefore := i < j
			if a.Before(b) != wantBefore {
				t.Fatalf("Before(%#x, %#x) = %v, want %v", uint32(a), uint32(b), a.Before(b), wantBefore)
			}
			if a.After(b) != (j < i) {
				t.Fatalf("After(%#x, %#x) = %v, want %v", uint32(a), uint32(b), a.After(b), j < i)
			}
		}
	}
}
