//go:build !race

package dict

import "testing"

// TestLookupHitAllocsNothing: a probe that finds a short interned string
// compares it in place, so a hit costs no allocation (Encode of a known
// label or key is on every insert's path).
func TestLookupHitAllocsNothing(t *testing.T) {
	d, _ := newTestDict(t, 8<<20)
	for _, s := range []string{"Person", "KNOWS", "creationDate"} {
		if _, err := d.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.Encode("creationDate"); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Lookup("KNOWS"); !ok {
			t.Fatal("KNOWS not found")
		}
	})
	if allocs != 0 {
		t.Errorf("a lookup hit allocates %.1f times, want 0", allocs)
	}
}
