package core

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"poseidon/internal/dict"
	"poseidon/internal/index"
	"poseidon/internal/pmem"
	"poseidon/internal/pmemobj"
	"poseidon/internal/storage"
)

// Config configures an Engine.
type Config struct {
	// Mode selects PMem (persistent, Optane-like latencies) or DRAM (the
	// volatile baseline). Default PMem.
	Mode Mode
	// PoolSize is the device capacity in bytes (default 256 MiB).
	PoolSize int
	// Profile overrides the latency model; nil uses the mode's default.
	Profile *pmem.Profile
	// LogCap sizes the pmemobj undo log (default 4 MiB).
	LogCap uint64
	// Shards partitions the engine's MVTO state, secondary indexes and
	// commit pipeline by record id range (chunk-granular striping).
	// 1 reproduces the original single-monitor behavior; 0 defaults to
	// GOMAXPROCS capped at maxShardLanes, overridable with the
	// POSEIDON_SHARDS environment variable (the CI race matrix uses it).
	// Shard ownership is volatile — any shard count opens any image.
	Shards int
}

func (c *Config) fill() {
	if c.PoolSize == 0 {
		c.PoolSize = 256 << 20
	}
	if c.LogCap == 0 {
		c.LogCap = 4 << 20
	}
	if c.Shards == 0 {
		c.Shards = defaultShards()
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Shards > maxShardLanes {
		c.Shards = maxShardLanes
	}
}

func defaultShards() int {
	if s := os.Getenv("POSEIDON_SHARDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			return n
		}
	}
	n := runtime.GOMAXPROCS(0)
	if n > maxShardLanes {
		n = maxShardLanes
	}
	return n
}

// pmemCacheBytes sizes the simulated CPU cache of a PMem-mode device.
const pmemCacheBytes = 4 << 20

// Root object layout. The lane directory extends the original layout;
// both sizes land in the same allocator class and freshly allocated
// blocks are zeroed, so images written before the extension read a zero
// lane count and remain fully compatible.
const (
	rootNodes    = 0
	rootRels     = 8
	rootProps    = 16
	rootDict     = 24
	rootAux      = 32 // auxiliary subsystem root (JIT code cache)
	rootIdxCount = 40
	rootIdxDir   = 48 // maxIndexes × idxEntrySize
	idxEntrySize = 32 // label|shardCount u64, key u64, kind|shard u64, hdr u64
	maxIndexes   = 64

	// Undo-log lane directory: one durable region per shard so crash
	// recovery can roll back every lane's in-flight commit, whatever
	// shard count the engine reopens with.
	rootLaneCount = rootIdxDir + maxIndexes*idxEntrySize
	rootLaneDir   = rootLaneCount + 8 // maxShardLanes × laneEntrySize
	laneEntrySize = 16                // log offset u64, log capacity u64
	maxShardLanes = 64
	rootSize      = rootLaneDir + maxShardLanes*laneEntrySize
)

// indexKey identifies a secondary index: nodes with a label, keyed by a
// property.
type indexKey struct {
	label uint32
	key   uint32
}

// engineShard holds everything the engine serializes per id-range shard:
// the MVTO bookkeeping, the commit lock gating the shard's undo-log lane,
// the shard's slice of every secondary index, and its GC queue. A record
// belongs to the shard owning its chunk (chunk index mod shard count), so
// all persistent ranges a commit touches are covered by the commit locks
// it holds — the invariant that keeps concurrent lane logs disjoint.
type engineShard struct {
	// commitMu is the shard commit lock. It serializes, per shard:
	// operation-time slot inserts, the commit critical section (lane
	// transaction through index update), abort-time slot releases, and
	// index backfill quiesce. Cross-shard transactions take several in
	// ascending shard order — only via Engine.lockShards.
	commitMu sync.Mutex
	lane     int // pmemobj undo-log lane (0 = built-in log when unsharded)

	activeMu sync.Mutex
	active   map[uint64]struct{}

	nodeChains *chainTable
	relChains  *chainTable
	nodeRTS    *rtsTable
	relRTS     *rtsTable

	// GC bookkeeping, guarded by gcMu: the committed deletions awaiting
	// physical reclamation and the versions commits retained in this
	// shard's chains. gcPending counts both lists' entries, so transaction
	// end skips an idle shard with one atomic load.
	gcMu      sync.Mutex
	gcQueue   []objKey
	retained  []retainedVer
	gcPending atomic.Int64

	// queue batches the shard's concurrent committers into epochs (see
	// groupcommit.go).
	queue epochQueue
	// plan is the scratch of the commit groups whose lowest locked shard
	// this is, reused under commitMu.
	plan epochPlan

	// Per-shard slice of the secondary indexes: tree s of index (label,
	// key) holds entries only for node ids owned by shard s.
	idxMu   sync.RWMutex
	indexes map[indexKey]*index.Tree

	// Contention and balance statistics (read by telemetry gauges).
	commits       atomic.Uint64 // commits whose lock set includes this shard
	lockWaitNs    atomic.Uint64 // time commits spent waiting on commitMu
	lockContended atomic.Uint64 // commit-lock acquisitions that found it held
	homeInserts   atomic.Uint64 // records placed in this shard at op time
}

// Engine is the PMem graph engine.
type Engine struct {
	mode Mode
	cfg  Config

	dev  *pmem.Device
	pool *pmemobj.Pool
	dict *dict.Dict

	nodes *storage.Table
	rels  *storage.Table
	props *storage.Table

	// nodeLabels and relLabels mirror the label of every node and
	// relationship slot in DRAM, for the table scans (see labelMirror).
	nodeLabels labelMirror
	relLabels  labelMirror

	root uint64

	// Global MVTO clock: transaction ids, commit timestamps and the
	// recovery watermark all come from this one atomic counter, which is
	// what keeps sharded commits serializable exactly like the
	// single-monitor design (see DESIGN.md "Sharded core").
	clock atomic.Uint64

	// beginMu closes the draw-vs-register window: Begin holds the read
	// side while it draws a timestamp and registers it in its home
	// shard's active set, and minActive takes the write side before
	// snapshotting the clock. Without it a GC pass racing a Begin could
	// compute a minimum past the just-drawn id and prune chain versions
	// the new transaction is entitled to read, and a commit could miss an
	// older reader and not retain the version it reads. A commit takes it
	// under its shard commit locks; nothing takes a commit lock while
	// holding it.
	beginMu sync.RWMutex

	nShards      int
	shards       []engineShard
	allShards    []int         // 0..nShards-1, the lockAllShards acquisition order
	crossCommits atomic.Uint64 // commits that locked more than one shard

	// Commit-epoch accounting (see GroupCommitStats).
	epochs       atomic.Uint64 // lane-sized groups persisted
	epochMembers atomic.Uint64 // transactions committed through them
	epochSplits  atomic.Uint64 // groups cut short to fit the undo lane

	// bulkLoading is set while a BulkLoader is open; Begin refuses to
	// start transactions then (see NewBulkLoader).
	bulkLoading atomic.Bool

	// idxDDL serializes index creation and rebuild against each other
	// and against NewBulkLoader's index check (not against commits —
	// those synchronize per shard).
	idxDDL sync.Mutex

	// refs caches one IndexRef per index (LookupIndex); setIndexTree drops
	// an entry whenever a tree of the family changes.
	refMu sync.RWMutex
	refs  map[indexKey]*IndexRef

	// tel holds the metric handles; the zero value (all nil) is the
	// disabled no-op path.
	tel Telemetry

	closed atomic.Bool
}

// Open creates a fresh engine on a new device. Use Reopen to attach to a
// device that survived a crash.
func Open(cfg Config) (*Engine, error) {
	cfg.fill()
	dev, err := newDevice(cfg)
	if err != nil {
		return nil, err
	}
	pool, err := pmemobj.Create(dev, pmemobj.Options{LogCap: cfg.LogCap})
	if err != nil {
		return nil, fmt.Errorf("core: create pool: %w", err)
	}
	e := newEngine(cfg, dev, pool)

	d, err := dict.Create(pool)
	if err != nil {
		return nil, err
	}
	e.dict = d
	if e.nodes, err = storage.CreateTable(pool, storage.NodeRecordSize, storage.Options{}); err != nil {
		return nil, err
	}
	if e.rels, err = storage.CreateTable(pool, storage.RelRecordSize, storage.Options{}); err != nil {
		return nil, err
	}
	if e.props, err = storage.CreateTable(pool, storage.PropRecordSize, storage.Options{}); err != nil {
		return nil, err
	}
	root, err := pool.Alloc(rootSize)
	if err != nil {
		return nil, err
	}
	dev.WriteU64(root+rootNodes, e.nodes.Offset())
	dev.WriteU64(root+rootRels, e.rels.Offset())
	dev.WriteU64(root+rootProps, e.props.Offset())
	dev.WriteU64(root+rootDict, d.Offset())
	dev.WriteU64(root+rootIdxCount, 0)
	dev.Persist(root, rootSize)
	pool.SetRoot(root)
	e.root = root
	e.initShardStorage()
	if err := e.setupLanes(); err != nil {
		return nil, err
	}
	e.clock.Store(1)
	return e, nil
}

func newDevice(cfg Config) (*pmem.Device, error) {
	switch cfg.Mode {
	case DRAM:
		prof := pmem.DRAMProfile()
		if cfg.Profile != nil {
			prof = *cfg.Profile
		}
		return pmem.New(pmem.Config{
			Name: "graph-dram", Size: cfg.PoolSize, Profile: prof,
		}), nil
	case PMem:
		prof := pmem.PMemProfile()
		if cfg.Profile != nil {
			prof = *cfg.Profile
		}
		return pmem.New(pmem.Config{
			Name: "graph-pmem", Size: cfg.PoolSize, Profile: prof,
			CacheBytes: pmemCacheBytes, Persistent: true,
		}), nil
	default:
		return nil, fmt.Errorf("%w: unknown mode %d", ErrBadConfig, cfg.Mode)
	}
}

func newEngine(cfg Config, dev *pmem.Device, pool *pmemobj.Pool) *Engine {
	e := &Engine{
		mode:    cfg.Mode,
		cfg:     cfg,
		dev:     dev,
		pool:    pool,
		nShards: cfg.Shards,
		shards:  make([]engineShard, cfg.Shards),
		refs:    make(map[indexKey]*IndexRef),
	}
	e.allShards = make([]int, cfg.Shards)
	for s := range e.allShards {
		e.allShards[s] = s
	}
	for s := range e.shards {
		sh := &e.shards[s]
		sh.active = make(map[uint64]struct{})
		sh.nodeChains = newChainTable()
		sh.relChains = newChainTable()
		sh.nodeRTS = newRTSTable()
		sh.relRTS = newRTSTable()
		sh.indexes = make(map[indexKey]*index.Tree)
	}
	return e
}

// --- shard mapping ---

// Shards returns the engine's shard count.
func (e *Engine) Shards() int { return e.nShards }

// ShardOfNode returns the shard owning node id.
func (e *Engine) ShardOfNode(id uint64) int { return e.nodes.ShardOf(id) }

// ShardOfRel returns the shard owning relationship id.
func (e *Engine) ShardOfRel(id uint64) int { return e.rels.ShardOf(id) }

func (e *Engine) shardOf(key objKey) int {
	if key.kind == kindNode {
		return e.nodes.ShardOf(key.id)
	}
	return e.rels.ShardOf(key.id)
}

// homeShard maps a transaction to the shard where its new nodes are
// placed, spreading op-time inserts (and thus future commit locks) across
// shards.
func (e *Engine) homeShard(txid uint64) int { return int(txid % uint64(e.nShards)) }

// initShardStorage propagates the shard partition to the record tables.
// Called once at open, before any transaction runs.
func (e *Engine) initShardStorage() {
	e.nodes.SetShards(e.nShards)
	e.rels.SetShards(e.nShards)
	e.props.SetShards(e.nShards)
}

// setupLanes attaches every undo-log lane recorded in the root (rolling
// back any commit that was in flight in it at a crash) and, when the
// engine runs sharded, creates the lanes the configured shard count still
// lacks. Every stored lane is attached no matter the current shard count:
// a crash under Shards=8 must roll back all eight lanes even if the image
// reopens with Shards=1.
func (e *Engine) setupLanes() error {
	stored := e.dev.ReadU64(e.root + rootLaneCount)
	if stored > maxShardLanes {
		return fmt.Errorf("core: corrupt lane directory (count %d)", stored)
	}
	laneIDs := make([]int, 0, e.nShards)
	for i := uint64(0); i < stored; i++ {
		ent := e.root + rootLaneDir + i*laneEntrySize
		off := e.dev.ReadU64(ent)
		logCap := e.dev.ReadU64(ent + 8)
		id, err := e.pool.AttachLane(off, logCap)
		if err != nil {
			return fmt.Errorf("core: attach lane %d: %w", i, err)
		}
		laneIDs = append(laneIDs, id)
	}
	if e.nShards == 1 {
		// Unsharded engines commit on the built-in log; stored lanes were
		// attached purely so their pending transactions rolled back.
		e.shards[0].lane = 0
		return nil
	}
	// New lanes match the built-in log's capacity where the pool can
	// afford it, budgeting at most 1/16th of the device across all lanes
	// (floor 256 KiB) so small pools keep their heap.
	laneCap := e.pool.LogCap()
	if budget := uint64(e.dev.Size()) / uint64(16*e.nShards); budget < laneCap {
		laneCap = budget
	}
	if min := uint64(256 << 10); laneCap < min {
		laneCap = min
	}
	for len(laneIDs) < e.nShards {
		n := uint64(len(laneIDs))
		off, err := e.pool.Alloc(laneCap)
		if err != nil {
			return fmt.Errorf("core: allocate lane log: %w", err)
		}
		ent := e.root + rootLaneDir + n*laneEntrySize
		e.dev.WriteU64(ent, off)
		e.dev.WriteU64(ent+8, laneCap)
		e.dev.Persist(ent, laneEntrySize)
		// The 8-byte count bump makes the lane durable; a crash before it
		// only leaks the allocated region.
		e.dev.WriteU64(e.root+rootLaneCount, n+1)
		e.dev.Persist(e.root+rootLaneCount, 8)
		id, err := e.pool.AttachLane(off, laneCap)
		if err != nil {
			return err
		}
		laneIDs = append(laneIDs, id)
	}
	for s := range e.shards {
		e.shards[s].lane = laneIDs[s]
	}
	return nil
}

// Reopen attaches to a device holding a previously created engine,
// running full crash recovery: the pmemobj undo log is rolled back, stale
// record locks are cleared, half-done inserts are reclaimed, the
// timestamp clock is restored past the highest committed timestamp, and
// persistent indexes are reopened (hybrid indexes rebuild their DRAM
// inner levels).
func Reopen(dev *pmem.Device, cfg Config) (*Engine, error) {
	cfg.fill()
	pool, err := pmemobj.Open(dev)
	if err != nil {
		return nil, fmt.Errorf("core: reopen pool: %w", err)
	}
	e := newEngine(cfg, dev, pool)
	root := pool.Root()
	if root == 0 {
		return nil, fmt.Errorf("core: reopen: no root object")
	}
	e.root = root
	e.dict = dict.Open(pool, dev.ReadU64(root+rootDict))
	if e.nodes, err = storage.OpenTable(pool, dev.ReadU64(root+rootNodes)); err != nil {
		return nil, err
	}
	if e.rels, err = storage.OpenTable(pool, dev.ReadU64(root+rootRels)); err != nil {
		return nil, err
	}
	if e.props, err = storage.OpenTable(pool, dev.ReadU64(root+rootProps)); err != nil {
		return nil, err
	}
	e.initShardStorage()
	// Lane rollback must precede record recovery: a lane's pending commit
	// may cover the very records recoverRecords inspects.
	if err := e.setupLanes(); err != nil {
		return nil, err
	}
	maxTS, err := e.recoverRecords()
	if err != nil {
		return nil, err
	}
	e.clock.Store(maxTS)
	if err := e.reopenIndexes(); err != nil {
		return nil, err
	}
	if err := e.reconcileIndexes(); err != nil {
		return nil, err
	}
	return e, nil
}

// recoverRecords scans both record tables, clearing stale transaction
// locks (bts > 0: the version committed earlier, only the lock word is
// stale) and reclaiming slots of uncommitted inserts (bts == 0). The same
// pass fills each table's label mirror from the records it keeps. It
// returns the highest committed timestamp seen.
func (e *Engine) recoverRecords() (uint64, error) {
	maxTS := uint64(1)
	reclaim := func(tbl *storage.Table, labels *labelMirror, txnOff, btsOff, etsOff, labelOff uint64) error {
		var stale []uint64
		var drop []uint64
		tbl.Scan(func(id, off uint64) bool {
			txn := e.dev.ReadU64(off + txnOff)
			bts := e.dev.ReadU64(off + btsOff)
			ets := e.dev.ReadU64(off + etsOff)
			if bts > maxTS {
				maxTS = bts
			}
			if ets != Infinity && ets > maxTS {
				maxTS = ets
			}
			switch {
			case txn != 0 && bts == 0:
				drop = append(drop, id) // uncommitted insert
				return true
			case txn == 0 && bts == 0:
				drop = append(drop, id) // half-initialized slot
				return true
			case txn != 0:
				stale = append(stale, off) // stale lock on committed data
			}
			labels.set(id, uint32(e.dev.ReadU64(off+labelOff)))
			return true
		})
		// One fence for all the table's stale locks, one pool transaction
		// for all its dropped slots (split only at the log's capacity).
		for _, off := range stale {
			e.dev.WriteU64(off+txnOff, 0)
			e.dev.Flush(off+txnOff, 8)
		}
		if len(stale) > 0 {
			e.dev.Drain()
		}
		return tbl.Release(drop...)
	}
	if err := reclaim(e.nodes, &e.nodeLabels, storage.NTxnID, storage.NBts, storage.NEts, storage.NLabel); err != nil {
		return 0, err
	}
	if err := reclaim(e.rels, &e.relLabels, storage.RTxnID, storage.RBts, storage.REts, storage.RLabel); err != nil {
		return 0, err
	}
	return maxTS, nil
}

// Watermark returns the highest committed timestamp the engine knows of.
// After Reopen it is the recovered commit watermark: no durable version
// may carry a timestamp beyond it (the fsck records pass checks this).
func (e *Engine) Watermark() uint64 { return e.clock.Load() }

// AuxRoot returns the auxiliary root offset (used by the JIT compiler for
// its persistent code cache), or 0 if unset.
func (e *Engine) AuxRoot() uint64 { return e.dev.ReadU64(e.root + rootAux) }

// SetAuxRoot durably stores the auxiliary root offset (8-byte
// failure-atomic store).
func (e *Engine) SetAuxRoot(off uint64) {
	e.dev.WriteU64(e.root+rootAux, off)
	e.dev.Persist(e.root+rootAux, 8)
}

// Device exposes the underlying device (for crash simulation and stats).
func (e *Engine) Device() *pmem.Device { return e.dev }

// Pool exposes the underlying persistent pool.
func (e *Engine) Pool() *pmemobj.Pool { return e.pool }

// Dict exposes the string dictionary (used by the query layer to resolve
// label and key codes at plan time).
func (e *Engine) Dict() *dict.Dict { return e.dict }

// Mode returns the engine's storage mode.
func (e *Engine) Mode() Mode { return e.mode }

// Nodes returns the node table (query-engine access path).
func (e *Engine) Nodes() *storage.Table { return e.nodes }

// Rels returns the relationship table.
func (e *Engine) Rels() *storage.Table { return e.rels }

// Props returns the property table.
func (e *Engine) Props() *storage.Table { return e.props }

// Close unregisters the engine's pool and every index tree's private DRAM
// pool. The device (and, in PMem mode, its durable contents) remains
// usable for Reopen.
func (e *Engine) Close() {
	if e.closed.CompareAndSwap(false, true) {
		for _, info := range e.Indexes() {
			info.Tree.Close()
		}
		e.pool.Close()
	}
}

// GroupCommitStats reports commit-epoch progress: epochs persisted,
// transactions committed through them, and epochs that had to split to
// fit their undo-log lane.
func (e *Engine) GroupCommitStats() (epochs, members, splits uint64) {
	return e.epochs.Load(), e.epochMembers.Load(), e.epochSplits.Load()
}

// NodeCount returns the number of occupied node slots (all versions).
func (e *Engine) NodeCount() uint64 { return e.nodes.Count() }

// RelCount returns the number of occupied relationship slots.
func (e *Engine) RelCount() uint64 { return e.rels.Count() }

// ActiveTxs returns the number of transactions that have begun but not
// yet committed or aborted. Facade tests use it to assert that cancelled
// executions do not leak transactions.
func (e *Engine) ActiveTxs() int {
	n := 0
	for s := range e.shards {
		sh := &e.shards[s]
		sh.activeMu.Lock()
		n += len(sh.active)
		sh.activeMu.Unlock()
	}
	return n
}

// quiescent reports whether no transaction is active. Like minActive it
// first waits out the Begins between their clock draw and their
// registration, which ActiveTxs alone does not count.
func (e *Engine) quiescent() bool {
	e.beginMu.Lock()
	defer e.beginMu.Unlock()
	return e.ActiveTxs() == 0
}

// minActive returns the smallest timestamp of an active transaction not
// in except across all shards, or one past the current clock when there
// is none.
func (e *Engine) minActive(except []*Tx) uint64 {
	// Flush in-flight Begins, then snapshot the clock: any transaction
	// missing from the scan below either finished already or drew an id
	// after the barrier — and the latter is strictly above the ceiling.
	e.beginMu.Lock()
	ceiling := e.clock.Load() + 1
	e.beginMu.Unlock()
	min := Infinity
	for s := range e.shards {
		sh := &e.shards[s]
		sh.activeMu.Lock()
		for ts := range sh.active {
			if ts < min && !slices.ContainsFunc(except, func(tx *Tx) bool { return tx.id == ts }) {
				min = ts
			}
		}
		sh.activeMu.Unlock()
	}
	if ceiling < min {
		return ceiling
	}
	return min
}

// ShardStats is a snapshot of one shard's contention and balance
// counters, exported for the telemetry gauges and the saturation
// benchmark.
type ShardStats struct {
	Commits       uint64 // commits whose lock set included the shard
	LockWaitNs    uint64 // cumulative commit-lock wait
	LockContended uint64 // lock acquisitions that found the lock held
	HomeInserts   uint64 // records placed in the shard at op time
}

// ShardStatsSnapshot returns per-shard statistics plus the number of
// cross-shard commits.
func (e *Engine) ShardStatsSnapshot() (stats []ShardStats, crossCommits uint64) {
	stats = make([]ShardStats, e.nShards)
	for s := range e.shards {
		sh := &e.shards[s]
		stats[s] = ShardStats{
			Commits:       sh.commits.Load(),
			LockWaitNs:    sh.lockWaitNs.Load(),
			LockContended: sh.lockContended.Load(),
			HomeInserts:   sh.homeInserts.Load(),
		}
	}
	return stats, e.crossCommits.Load()
}

// encodeProps translates a property map into storage form, interning all
// strings through the dictionary. Keys are encoded in sorted order so the
// layout is deterministic.
func (e *Engine) encodeProps(props map[string]any) ([]storage.Prop, error) {
	if len(props) == 0 {
		return nil, nil
	}
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]storage.Prop, 0, len(props))
	for _, k := range keys {
		kc, err := e.dict.Encode(k)
		if err != nil {
			return nil, err
		}
		v, err := e.EncodeValue(props[k])
		if err != nil {
			return nil, fmt.Errorf("core: property %q: %w", k, err)
		}
		out = append(out, storage.Prop{Key: uint32(kc), Val: v})
	}
	return out, nil
}

// EncodeValue converts a Go value into storage form, interning strings
// through the dictionary.
func (e *Engine) EncodeValue(v any) (storage.Value, error) {
	switch x := v.(type) {
	case int:
		return storage.IntValue(int64(x)), nil
	case int32:
		return storage.IntValue(int64(x)), nil
	case int64:
		return storage.IntValue(x), nil
	case uint64:
		return storage.IntValue(int64(x)), nil
	case float64:
		return storage.FloatValue(x), nil
	case float32:
		return storage.FloatValue(float64(x)), nil
	case bool:
		return storage.BoolValue(x), nil
	case string:
		code, err := e.dict.Encode(x)
		if err != nil {
			return storage.Value{}, err
		}
		return storage.StringValue(code), nil
	case nil:
		return storage.Value{}, nil
	default:
		return storage.Value{}, fmt.Errorf("unsupported property type %T", v)
	}
}

// DecodeValue converts a storage value back into a Go value.
func (e *Engine) DecodeValue(v storage.Value) (any, error) {
	switch v.Type {
	case storage.TypeNil:
		return nil, nil
	case storage.TypeInt:
		return v.Int(), nil
	case storage.TypeFloat:
		return v.Float(), nil
	case storage.TypeBool:
		return v.Bool(), nil
	case storage.TypeString:
		return e.dict.DecodeAny(v.Code())
	default:
		return nil, fmt.Errorf("core: unknown value type %d", v.Type)
	}
}

// DecodeProps converts storage properties back into a Go map.
func (e *Engine) DecodeProps(props []storage.Prop) (map[string]any, error) {
	if len(props) == 0 {
		return nil, nil
	}
	out := make(map[string]any, len(props))
	for _, p := range props {
		k, err := e.dict.Decode(uint64(p.Key))
		if err != nil {
			return nil, err
		}
		v, err := e.DecodeValue(p.Val)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}
