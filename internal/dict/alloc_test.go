//go:build !race

package dict

import (
	"fmt"
	"strings"
	"testing"
)

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

// TestWarmDecodeAllocsNothing: a decoded code answers from its cache slot
// with the string boxed when it was filled, so a warm DecodeAny costs no
// allocation whatever the string's length.
func TestWarmDecodeAllocsNothing(t *testing.T) {
	d, _ := newTestDict(t, 8<<20)
	var codes []uint64
	for _, s := range []string{"", "Person", strings.Repeat("z", 5000)} {
		c, err := d.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		codes = append(codes, c)
	}
	decodeAll := func() {
		for _, c := range codes {
			if _, err := d.DecodeAny(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll()
	if allocs := testing.AllocsPerRun(200, decodeAll); allocs != 0 {
		t.Errorf("a warm decode allocates %.1f times, want 0", allocs)
	}
}

// TestColdDecodeAllocsPerCode: a cold decode of a short string boxes it
// once; the box's slot and the string's bytes come from shared chunks,
// and the code's slot from a block of codes. A thousand distinct short
// strings cost about one allocation per code (4.1 per code with a
// sync.Map for a cache: the bytes, the box, the map's entry and its
// internal growth).
func TestColdDecodeAllocsPerCode(t *testing.T) {
	d, _ := newTestDict(t, 16<<20)
	const n = 1000
	codes := make([]uint64, n)
	for i := range codes {
		var err error
		if codes[i], err = d.Encode(fmt.Sprintf("person-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		cold := Open(d.pool, d.hdr) // an empty cache
		for _, c := range codes {
			if _, err := cold.DecodeAny(c); err != nil {
				t.Fatal(err)
			}
		}
	})
	perCode := allocs / n
	t.Logf("%.3f allocations per cold decode", perCode)
	if perCode > 1.1 {
		t.Errorf("a cold decode allocates %.3f times per code, budget 1.1", perCode)
	}
}
