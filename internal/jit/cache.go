package jit

import (
	"fmt"
	"hash/fnv"
	"sync"

	"poseidon/internal/core"
	"poseidon/internal/pmemobj"
	"poseidon/internal/storage"
)

// Persistent compiled-code cache (§6.2 "JIT Compilation"): optimized IR
// is serialized and stored in PMem in a hash map keyed by the query
// identifier, so subsequent runs of a query — even after a restart — skip
// code generation and optimization and only pay the (cheap) linking step.
// This is the analogue of the paper persisting the JIT's binary object
// files.

const (
	pcEntries   = 128
	pcHdrSize   = 64
	pcEntrySize = 32 // hash u64, blobOff u64, blobLen u64, reserved u64
)

type pcache struct {
	mu   sync.Mutex
	pool *pmemobj.Pool
	hdr  uint64 // header block: [count u64][pad][entries]
}

// openCache attaches to (or creates) the engine's persistent code cache,
// anchored at the engine's auxiliary root.
func openCache(e *core.Engine) (*pcache, error) {
	pool := e.Pool()
	if off := e.AuxRoot(); off != 0 {
		return &pcache{pool: pool, hdr: off}, nil
	}
	off, err := pool.Alloc(pcHdrSize + pcEntries*pcEntrySize)
	if err != nil {
		return nil, fmt.Errorf("jit: allocate code cache: %w", err)
	}
	pool.Device().Persist(off, pcHdrSize+pcEntries*pcEntrySize)
	e.SetAuxRoot(off)
	return &pcache{pool: pool, hdr: off}, nil
}

func sigHash(sig string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(sig))
	v := h.Sum64()
	if v == 0 {
		v = 1
	}
	return v
}

func (c *pcache) entryOff(i int) uint64 {
	return c.hdr + pcHdrSize + uint64(i)*pcEntrySize
}

// lookup returns the serialized code blob for sig, if present.
func (c *pcache) lookup(sig string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dev := c.pool.Device()
	h := sigHash(sig)
	n := int(dev.ReadU64(c.hdr))
	if n > pcEntries {
		n = pcEntries
	}
	for i := 0; i < n; i++ {
		ent := c.entryOff(i)
		if dev.ReadU64(ent) != h {
			continue
		}
		blobOff := dev.ReadU64(ent + 8)
		blobLen := dev.ReadU64(ent + 16)
		blob := make([]byte, blobLen)
		dev.ReadBytes(blobOff, blob)
		// The blob embeds the full signature to disambiguate hash
		// collisions.
		storedSig, body, ok := splitBlob(blob)
		if !ok || storedSig != sig {
			continue
		}
		return body, true
	}
	return nil, false
}

// store persists a code blob under sig. A full cache silently skips
// persistence (the in-memory cache still serves the session).
func (c *pcache) store(sig string, body []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	dev := c.pool.Device()
	n := int(dev.ReadU64(c.hdr))
	if n >= pcEntries {
		return nil
	}
	blob := joinBlob(sig, body)
	off, err := c.pool.Alloc(uint64(len(blob)))
	if err != nil {
		return err
	}
	//poseidonlint:ignore torn-store the blob is unreachable until the 8-byte entry-count bump persists below; a torn blob after crash is garbage-but-invisible
	dev.WriteBytes(off, blob)
	dev.Flush(off, uint64(len(blob)))
	ent := c.entryOff(n)
	dev.WriteU64(ent+8, off)
	dev.WriteU64(ent+16, uint64(len(blob)))
	dev.WriteU64(ent, sigHash(sig))
	dev.Flush(ent, pcEntrySize)
	dev.Drain()
	// The entry becomes visible only once the count is bumped durably
	// (8-byte failure-atomic commit point).
	dev.WriteU64(c.hdr, uint64(n+1))
	dev.Persist(c.hdr, 8)
	return nil
}

func joinBlob(sig string, body []byte) []byte {
	out := make([]byte, 8+len(sig)+len(body))
	for i := 0; i < 8; i++ {
		out[i] = byte(len(sig) >> (8 * i))
	}
	copy(out[8:], sig)
	copy(out[8+len(sig):], body)
	return out
}

func splitBlob(blob []byte) (string, []byte, bool) {
	if len(blob) < 8 {
		return "", nil, false
	}
	n := 0
	for i := 7; i >= 0; i-- {
		n = n<<8 | int(blob[i])
	}
	if n < 0 || 8+n > len(blob) {
		return "", nil, false
	}
	return string(blob[8 : 8+n]), blob[8+n:], true
}

// irFormat names the serialized form of a compilation — one optimized IR
// function in the codec below, opcodes by their number in ir.go — and is
// part of every cache key, so code persisted in another format is never
// found, let alone linked.
const irFormat = "ir3|"

// encodeFn serializes a function. A compact custom codec keeps relinking
// far cheaper than recompiling — the property that makes the persistent
// code cache worthwhile (§6.2).
func encodeFn(f *Fn) []byte {
	var w irWriter
	w.fn(f)
	return w.buf
}

func decodeFn(data []byte) (*Fn, error) {
	r := irReader{buf: data}
	f := r.fn()
	if r.err != nil {
		return nil, fmt.Errorf("jit: decode code blob: %w", r.err)
	}
	return f, nil
}

// --- compact IR codec (varint-based) ---

type irWriter struct{ buf []byte }

func (w *irWriter) u64(v uint64) {
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

func (w *irWriter) i64(v int64) { w.u64(uint64(v)<<1 ^ uint64(v>>63)) }

func (w *irWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *irWriter) reg(r Reg) { w.i64(int64(r)) }

func (w *irWriter) fn(f *Fn) {
	w.str(f.Name)
	w.u64(uint64(f.NumVals))
	w.u64(uint64(f.NumNodes))
	w.u64(uint64(f.NumRels))
	w.u64(uint64(f.NumIters))
	w.u64(uint64(f.NumSlots))
	w.u64(uint64(len(f.OutCols)))
	for _, c := range f.OutCols {
		w.u64(uint64(c.Kind))
		w.reg(c.Reg)
	}
	w.u64(uint64(len(f.Blocks)))
	for _, blk := range f.Blocks {
		w.str(blk.Name)
		w.u64(uint64(blk.Kind))
		w.reg(blk.Cond)
		w.i64(int64(blk.To))
		w.i64(int64(blk.Else))
		w.u64(uint64(len(blk.Instrs)))
		for _, in := range blk.Instrs {
			w.u64(uint64(in.Op))
			w.reg(in.Dst)
			w.reg(in.Dst2)
			w.reg(in.A)
			w.reg(in.B)
			w.i64(int64(in.Aux))
			w.u64(uint64(in.Val.Type))
			w.u64(in.Val.Raw)
			w.str(in.Sym)
			w.u64(uint64(len(in.Pairs)))
			for _, p := range in.Pairs {
				w.str(p.Key)
				w.reg(p.Val)
			}
			w.u64(uint64(len(in.Cols)))
			for _, c := range in.Cols {
				w.u64(uint64(c.Kind))
				w.reg(c.Reg)
			}
		}
	}
}

type irReader struct {
	buf []byte
	pos int
	err error
}

func (r *irReader) u64() uint64 {
	var v uint64
	var shift uint
	for {
		if r.pos >= len(r.buf) {
			r.err = fmt.Errorf("truncated IR blob")
			return 0
		}
		b := r.buf[r.pos]
		r.pos++
		v |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
		if shift > 63 {
			r.err = fmt.Errorf("varint overflow")
			return 0
		}
	}
}

func (r *irReader) i64() int64 {
	v := r.u64()
	return int64(v>>1) ^ -int64(v&1)
}

func (r *irReader) str() string {
	n := int(r.u64())
	if r.err != nil || r.pos+n > len(r.buf) || n < 0 {
		r.err = fmt.Errorf("truncated string in IR blob")
		return ""
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s
}

func (r *irReader) reg() Reg { return Reg(r.i64()) }

func (r *irReader) fn() *Fn {
	f := &Fn{Name: r.str()}
	f.NumVals = int(r.u64())
	f.NumNodes = int(r.u64())
	f.NumRels = int(r.u64())
	f.NumIters = int(r.u64())
	f.NumSlots = int(r.u64())
	nOut := int(r.u64())
	if r.err != nil || nOut > 1<<16 {
		r.err = fmt.Errorf("corrupt IR blob header")
		return f
	}
	if nOut > 0 {
		f.OutCols = make([]Col, nOut)
	}
	for i := range f.OutCols {
		f.OutCols[i] = Col{Kind: ColKind(r.u64()), Reg: r.reg()}
	}
	nBlocks := int(r.u64())
	if r.err != nil || nBlocks > 1<<20 {
		r.err = fmt.Errorf("corrupt IR blob block count")
		return f
	}
	f.Blocks = make([]*Block, nBlocks)
	for bi := range f.Blocks {
		blk := &Block{Name: r.str()}
		blk.Kind = TermKind(r.u64())
		blk.Cond = r.reg()
		blk.To = int(r.i64())
		blk.Else = int(r.i64())
		nIn := int(r.u64())
		if r.err != nil || nIn > 1<<20 {
			r.err = fmt.Errorf("corrupt IR blob instr count")
			return f
		}
		if nIn > 0 {
			blk.Instrs = make([]Instr, nIn)
		}
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			in.Op = Opcode(r.u64())
			in.Dst = r.reg()
			in.Dst2 = r.reg()
			in.A = r.reg()
			in.B = r.reg()
			in.Aux = int(r.i64())
			in.Val.Type = storage.ValueType(r.u64())
			in.Val.Raw = r.u64()
			in.Sym = r.str()
			nPairs := int(r.u64())
			if r.err != nil || nPairs > 1<<10 {
				r.err = fmt.Errorf("corrupt IR blob pairs")
				return f
			}
			for k := 0; k < nPairs; k++ {
				in.Pairs = append(in.Pairs, Pair{Key: r.str(), Val: r.reg()})
			}
			nCols := int(r.u64())
			if r.err != nil || nCols > 1<<10 {
				r.err = fmt.Errorf("corrupt IR blob cols")
				return f
			}
			for k := 0; k < nCols; k++ {
				in.Cols = append(in.Cols, Col{Kind: ColKind(r.u64()), Reg: r.reg()})
			}
		}
		f.Blocks[bi] = blk
	}
	return f
}
