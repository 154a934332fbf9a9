package jit

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"poseidon/internal/core"
	"poseidon/internal/query"
	"poseidon/internal/storage"
)

// randomFn builds a structurally valid random function for codec tests.
func randomFn(rng *rand.Rand) *Fn {
	f := &Fn{
		Name:     "t",
		NumVals:  rng.Intn(16) + 1,
		NumNodes: rng.Intn(4) + 1,
		NumRels:  rng.Intn(4) + 1,
		NumIters: rng.Intn(4) + 1,
		NumSlots: rng.Intn(4),
	}
	nBlocks := rng.Intn(6) + 1
	for b := 0; b < nBlocks; b++ {
		blk := &Block{Name: "b"}
		for i := rng.Intn(5); i > 0; i-- {
			in := Instr{
				Op:   Opcode(rng.Intn(int(OpEmit) + 1)),
				Dst:  Reg(rng.Intn(f.NumVals)),
				Dst2: NoReg,
				A:    Reg(rng.Intn(f.NumVals)),
				B:    NoReg,
				Aux:  rng.Intn(6),
				Val:  storage.IntValue(rng.Int63()),
				Sym:  "sym" + string(rune('a'+rng.Intn(26))),
			}
			if rng.Intn(3) == 0 {
				in.Pairs = []Pair{{Key: "k", Val: Reg(rng.Intn(f.NumVals))}}
			}
			if rng.Intn(3) == 0 {
				in.Cols = []Col{{Kind: ColKind(rng.Intn(3)), Reg: Reg(rng.Intn(f.NumVals))}}
			}
			blk.Instrs = append(blk.Instrs, in)
		}
		switch rng.Intn(3) {
		case 0:
			blk.Kind, blk.To = TermJump, rng.Intn(nBlocks)
		case 1:
			blk.Kind, blk.Cond = TermBranch, Reg(rng.Intn(f.NumVals))
			blk.To, blk.Else = rng.Intn(nBlocks), rng.Intn(nBlocks)
		default:
			blk.Kind = TermRet
		}
		f.Blocks = append(f.Blocks, blk)
	}
	f.OutCols = []Col{{Kind: ColVal, Reg: 0}}
	return f
}

func TestIRCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fn := randomFn(rng)
		got, err := decodeFn(encodeFn(fn))
		return err == nil && reflect.DeepEqual(fn, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIRCodecRejectsCorruptBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	blob := encodeFn(randomFn(rng))
	// Truncations must error, not panic or return garbage silently.
	for _, n := range []int{0, 1, len(blob) / 2, len(blob) - 1} {
		if _, err := decodeFn(blob[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", n)
		}
	}
}

func TestBlobFramingRoundTrip(t *testing.T) {
	cases := []struct {
		sig  string
		body []byte
	}{
		{"", nil},
		{"NodeScan(Person)", []byte{1, 2, 3}},
		{"long" + string(make([]byte, 300)), make([]byte, 1000)},
	}
	for _, c := range cases {
		blob := joinBlob(c.sig, c.body)
		sig, body, ok := splitBlob(blob)
		if !ok || sig != c.sig || len(body) != len(c.body) {
			t.Errorf("framing round trip failed for sig %q", c.sig)
		}
	}
	if _, _, ok := splitBlob([]byte{1, 2}); ok {
		t.Error("splitBlob accepted a 2-byte blob")
	}
}

func TestCacheCollisionKeepsBothQueries(t *testing.T) {
	// Two different plans: the persistent cache must serve each its own
	// code even though both are probed via a 64-bit hash (full-signature
	// check disambiguates).
	e, _ := buildGraph(t, core.DRAM)
	j, _ := New(e)
	p1 := &query.Plan{Root: &query.NodeScan{Label: "Person"}}
	p2 := &query.Plan{Root: &query.Limit{Input: &query.NodeScan{Label: "Person"}, N: 3}}
	if _, err := j.CompileCtx(context.Background(), p1); err != nil {
		t.Fatal(err)
	}
	if _, err := j.CompileCtx(context.Background(), p2); err != nil {
		t.Fatal(err)
	}
	j.InvalidateSession()
	c1, err := j.CompileCtx(context.Background(), p1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := j.CompileCtx(context.Background(), p2)
	if err != nil {
		t.Fatal(err)
	}
	if !c1.FromCache || !c2.FromCache {
		t.Errorf("cache hits: %v, %v, want both", c1.FromCache, c2.FromCache)
	}
	tx := e.Begin()
	defer tx.Abort()
	n := 0
	if _, err := j.RunCtx(context.Background(), tx, p2, nil, func(query.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("limit plan from cache returned %d rows, want 3", n)
	}
}
