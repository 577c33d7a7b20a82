package exec

import (
	"errors"
	"fmt"
	"io"

	"hivempi/internal/chaos"
	"hivempi/internal/dfs"
	"hivempi/internal/metrics"
	"hivempi/internal/storage"
	"hivempi/internal/trace"
	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// NodeView is the engines' read-only window onto cluster membership:
// schedulers consult it to blacklist non-UP hosts for task placement.
// The cluster.Membership implements it.
type NodeView interface {
	IsUp(node string) bool
}

// ErrNodeLost reports a task that could not run because its host died
// between planning and launch. The scheduler maps it (like lost-block
// reads) to a stage retry on surviving nodes rather than an engine
// fallback.
var ErrNodeLost = errors.New("exec: task host lost")

// Env gives the runtime access to the cluster substrate.
type Env struct {
	FS *dfs.FileSystem
	// Chaos is the fault-injection plane engines consult for task
	// crashes and stragglers (nil = no faults). Layers below (dfs, mpi)
	// carry their own reference.
	Chaos *chaos.Plane
	// Metrics is the observability registry engines fold completed
	// stage traces into and thread down to the shuffle/storage layers
	// (nil = no metrics; every consumer is nil-safe).
	Metrics *metrics.Registry
	// Nodes is the cluster-membership view used to skip dead hosts
	// (nil = every host is considered UP).
	Nodes NodeView
}

// NodeUp reports whether a host is schedulable: true with no membership
// view attached or for the empty host (no locality constraint).
func (e *Env) NodeUp(host string) bool {
	if e == nil || e.Nodes == nil || host == "" {
		return true
	}
	return e.Nodes.IsUp(host)
}

// SpeculativeDetectSec is the virtual time a speculative scheduler
// takes to notice a straggler and launch a duplicate; with speculation
// on, a straggling task costs at most this much extra (plus the
// duplicate's launch overhead, charged by the perfmodel).
const SpeculativeDetectSec = 1.5

// ApplyStraggler charges an injected slow-task delay to the metrics.
// With speculation enabled (the default) the delay is capped at the
// detection threshold and the task is marked speculative; with it
// disabled the full delay lands on the task.
func ApplyStraggler(m *trace.Task, delaySec float64, conf EngineConf) {
	if m == nil || delaySec <= 0 {
		return
	}
	if conf.DisableSpeculation {
		m.StragglerDelaySec += delaySec
		return
	}
	detect := SpeculativeDetectSec
	if m.PredictiveSpec {
		// The adapt runtime already launched a backup for this task at
		// stage start, so the slow copy is abandoned almost immediately.
		detect = PredictiveDetectSec
	}
	if delaySec > detect {
		delaySec = detect
	}
	m.Speculative = true
	m.StragglerDelaySec += delaySec
}

// RowSink consumes one produced row. It may keep the row.
type RowSink func(types.Row) error

// WriteBatch hands b's rows to s one at a time, cut from one fresh
// slab, so s may keep them.
func (s RowSink) WriteBatch(b *vec.Batch) error {
	rows := vec.Materialize(b)
	for lane := 0; lane < b.N; lane++ {
		if err := s(rows.Row(lane)); err != nil {
			return err
		}
	}
	return nil
}

// MapSink takes a map-only task's output a batch at a time. The batch
// is valid only during the call: an implementation that keeps rows
// materializes them (RowSink's WriteBatch does).
type MapSink interface {
	WriteBatch(b *vec.Batch) error
}

// KVEmit sends one shuffle pair (the engine wires this to Hadoop's
// collector or DataMPI's MPI_D_Send). key and value are valid only
// during the call — the caller encodes the next pair over them — so an
// implementation that keeps a pair copies it.
type KVEmit func(key, value []byte) error

// batchSink consumes one batch. The batch is only valid for the
// duration of the call — operators reuse and pool batches aggressively.
type batchSink func(b *vec.Batch) error

// chain is a built map-side pipeline: push column batches into
// process, then close (flushing blocking operators front-to-back).
// Each operator compiles its expressions once (compileKernel) and then
// processes whole batches per call; operators that rearrange rows
// (filter, join, aggregate) work in place or emit pooled batches.
type chain struct {
	process batchSink
	closers []func() error
}

func (c *chain) close() error {
	for _, f := range c.closers {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// buildChain compiles the op list into a push pipeline ending at sink.
func buildChain(env *Env, ops []MapOp, sink batchSink) (*chain, error) {
	c := &chain{process: sink}
	// Build back-to-front so each op wraps its downstream.
	for i := len(ops) - 1; i >= 0; i-- {
		switch op := ops[i].(type) {
		case *FilterOp:
			c.process = newFilter(op, c.process)
		case *SelectOp:
			c.process = newProject(op, c.process)
		case *LimitOp:
			c.process = newLimit(op, c.process)
		case *MapJoinOp:
			p, err := newMapJoinProbe(env, op, c.process)
			if err != nil {
				return nil, err
			}
			c.process = p
		case *GroupByPartialOp:
			p, closer := newPartialAgg(op, c.process)
			c.process = p
			c.closers = append([]func() error{closer}, c.closers...)
		default:
			return nil, fmt.Errorf("exec: unknown map op %T", ops[i])
		}
	}
	return c, nil
}

// newFilter compacts each batch in place to the rows the condition
// holds for (NULL counts as false) and drops batches left empty.
func newFilter(op *FilterOp, next batchSink) batchSink {
	k := compileKernel(op.Cond)
	var cond vec.Vector
	var mask []bool
	return func(b *vec.Batch) error {
		if err := k(b, &cond); err != nil {
			return err
		}
		if cap(mask) < b.N {
			mask = make([]bool, b.N)
		}
		mask = mask[:b.N]
		for i := 0; i < b.N; i++ {
			mask[i] = laneBool(&cond, i)
		}
		b.Compact(mask)
		if b.N == 0 {
			return nil
		}
		return next(b)
	}
}

// newProject evaluates the select list into a pooled output batch.
func newProject(op *SelectOp, next batchSink) batchSink {
	ks := compileKernels(op.Exprs)
	return func(b *vec.Batch) error {
		out := vec.Get(len(ks))
		defer vec.Put(out)
		for j, k := range ks {
			if err := k(b, out.Cols[j]); err != nil {
				return err
			}
		}
		out.N = b.N
		return next(out)
	}
}

// newLimit passes the first N rows of the task's stream: the batch the
// limit falls in is truncated, later ones dropped.
func newLimit(op *LimitOp, next batchSink) batchSink {
	left := op.N
	return func(b *vec.Batch) error {
		if left <= 0 {
			return nil
		}
		if b.N > left {
			b.N = left
		}
		left -= b.N
		return next(b)
	}
}

func compileKernels(exprs []Expr) []kernel {
	ks := make([]kernel, len(exprs))
	for i, e := range exprs {
		ks[i] = compileKernel(e)
	}
	return ks
}

// evalKernels runs ks[i] over b into outs[i]; nil kernels are skipped.
func evalKernels(ks []kernel, b *vec.Batch, outs []vec.Vector) error {
	for i, k := range ks {
		if k == nil {
			continue
		}
		if err := k(b, &outs[i]); err != nil {
			return err
		}
	}
	return nil
}

// appendLaneKey appends the order-preserving encoding of one lane of
// the evaluated key columns and reports whether any of them is NULL.
func appendLaneKey(buf []byte, keyVs []vec.Vector, lane int, descs []bool) ([]byte, bool) {
	anyNull := false
	for i := range keyVs {
		d := keyVs[i].Datum(lane)
		if d.IsNull() {
			anyNull = true
		}
		buf = types.AppendKeyDatum(buf, d, i < len(descs) && descs[i])
	}
	return buf, anyNull
}

// datumBatcher packs rows one at a time into a pooled datum-mode batch
// and hands it to next whenever it fills, and on flush.
type datumBatcher struct {
	out  *vec.Batch
	n    int
	size int // rows per batch
	next batchSink
}

// newDatumBatcher packs rows of width columns into batches of size.
func newDatumBatcher(width, size int, next batchSink) *datumBatcher {
	p := &datumBatcher{out: vec.Get(width), size: size, next: next}
	p.reset()
	return p
}

func (p *datumBatcher) reset() {
	for _, v := range p.out.Cols {
		v.Reset(vec.KindAny, p.size)
	}
	p.n = 0
}

// set stores column c of the row being packed.
func (p *datumBatcher) set(c int, d types.Datum) { p.out.Cols[c].SetDatum(p.n, d) }

// endRow completes the row being packed.
func (p *datumBatcher) endRow() error {
	p.n++
	if p.n == p.size {
		return p.flush()
	}
	return nil
}

func (p *datumBatcher) flush() error {
	if p.n == 0 {
		return nil
	}
	p.out.N = p.n
	err := p.next(p.out)
	p.reset()
	return err
}

// release returns the batch to the pool; the batcher is dead after it.
func (p *datumBatcher) release() { vec.Put(p.out) }

// scanSplit pushes every batch of one input split through each and
// returns the reader (for its physical byte count).
func scanSplit(env *Env, in TableInput, split dfs.Split, each batchSink) (storage.BatchReader, error) {
	rd, err := storage.OpenSplitBatch(env.FS, split, in.Format, in.Schema, in.Projection, in.Predicate)
	if err != nil {
		return nil, err
	}
	b := vec.Get(in.Schema.Len())
	defer vec.Put(b)
	for {
		err := rd.NextBatch(b)
		if err == io.EOF {
			return rd, nil
		}
		if err != nil {
			return nil, err
		}
		if err := each(b); err != nil {
			return nil, err
		}
	}
}

// loadMapJoinTable runs the small-table side of a map join: it streams
// the build input through its op chain into a hash map keyed by the
// encoded build keys, returning the table and the small-side row
// width.
func loadMapJoinTable(env *Env, op *MapJoinOp) (map[string][]types.Row, int, error) {
	table := make(map[string][]types.Row)
	smallWidth := op.SmallWidth
	if smallWidth == 0 {
		smallWidth = op.Small.Schema.Len()
	}
	keyKs := compileKernels(op.BuildKeys)
	keyVs := make([]vec.Vector, len(keyKs))
	var keyBuf []byte
	build := func(b *vec.Batch) error {
		if err := evalKernels(keyKs, b, keyVs); err != nil {
			return err
		}
		rows := vec.Materialize(b)
		for lane := 0; lane < b.N; lane++ {
			var null bool
			keyBuf, null = appendLaneKey(keyBuf[:0], keyVs, lane, nil)
			if null {
				continue // NULL keys never join
			}
			table[string(keyBuf)] = append(table[string(keyBuf)], rows.Row(lane))
		}
		return nil
	}
	loader, err := buildChain(env, op.SmallOps, build)
	if err != nil {
		return nil, 0, err
	}
	for _, path := range op.Small.ResolvePaths(env.FS) {
		sz, err := env.FS.Size(path)
		if err != nil {
			return nil, 0, fmt.Errorf("exec: map join small table: %w", err)
		}
		if _, err := scanSplit(env, op.Small, dfs.Split{Path: path, Offset: 0, Length: sz}, loader.process); err != nil {
			return nil, 0, err
		}
	}
	if err := loader.close(); err != nil {
		return nil, 0, err
	}
	return table, smallWidth, nil
}

// newMapJoinProbe loads the small table and returns the probe
// operator: keys are kernel-computed per batch, join results packed
// into datum-mode output batches.
func newMapJoinProbe(env *Env, op *MapJoinOp, next batchSink) (batchSink, error) {
	table, smallWidth, err := loadMapJoinTable(env, op)
	if err != nil {
		return nil, err
	}
	keyKs := compileKernels(op.ProbeKeys)
	outer := op.Outer
	keyVs := make([]vec.Vector, len(keyKs))
	var keyBuf []byte
	return func(b *vec.Batch) error {
		if err := evalKernels(keyKs, b, keyVs); err != nil {
			return err
		}
		out := newDatumBatcher(len(b.Cols)+smallWidth, vec.DefaultSize, next)
		defer out.release()
		emit := func(lane int, small types.Row) error {
			for c, v := range b.Cols {
				out.set(c, v.Datum(lane))
			}
			for c := 0; c < smallWidth; c++ {
				var d types.Datum // an outer miss (or a short row) pads with NULLs
				if c < len(small) {
					d = small[c]
				}
				out.set(len(b.Cols)+c, d)
			}
			return out.endRow()
		}
		for lane := 0; lane < b.N; lane++ {
			var null bool
			keyBuf, null = appendLaneKey(keyBuf[:0], keyVs, lane, nil)
			matches := table[string(keyBuf)]
			if null {
				matches = nil // NULL keys never join
			}
			if len(matches) == 0 {
				if outer {
					if err := emit(lane, nil); err != nil {
						return err
					}
				}
				continue
			}
			for _, m := range matches {
				if err := emit(lane, m); err != nil {
					return err
				}
			}
		}
		return out.flush()
	}, nil
}

// newPartialAgg is map-side hash aggregation over one pooled aggSlab.
// Each batch takes two passes: every lane's encoded key resolves to a
// group id (a new key appends a slab row), then each aggregate folds
// its argument column into the states of those groups. The table
// flushes right after the lane whose new group fills it to MaxEntries:
// the lanes up to it fold, the groups leave in the byte order of their
// encoded keys, and the rest of the batch starts an empty table.
func newPartialAgg(op *GroupByPartialOp, next batchSink) (batchSink, func() error) {
	maxEntries := op.MaxEntries
	if maxEntries <= 0 {
		maxEntries = DefaultHashAggEntries
	}
	keyKs := compileKernels(op.Keys)
	// CountStar has no argument expression; a nil kernel marks it and
	// its fold passes a nil vector.
	argKs := make([]kernel, len(op.Aggs))
	for i, spec := range op.Aggs {
		if spec.Arg != nil {
			argKs[i] = compileKernel(spec.Arg)
		}
	}
	na := len(op.Aggs)
	width := len(op.Keys)
	for _, spec := range op.Aggs {
		width += spec.PartialWidth()
	}
	s := aggSlabs.Get().(*aggSlab)
	keyVs := make([]vec.Vector, len(keyKs))
	argVs := make([]vec.Vector, len(argKs))
	fold := func(lo, hi int) {
		for i := range op.Aggs {
			var v *vec.Vector
			if argKs[i] != nil {
				v = &argVs[i]
			}
			s.fold(i, na, &op.Aggs[i], v, lo, hi)
		}
	}
	process := func(b *vec.Batch) error {
		if err := evalKernels(keyKs, b, keyVs); err != nil {
			return err
		}
		if err := evalKernels(argKs, b, argVs); err != nil {
			return err
		}
		if cap(s.gids) < b.N {
			s.gids = make([]int32, b.N)
		}
		s.gids = s.gids[:b.N]
		lo := 0
		for lane := 0; lane < b.N; lane++ {
			if s.add(keyVs, lane, na) && s.groups() >= maxEntries {
				fold(lo, lane+1)
				if err := s.flush(op, width, next); err != nil {
					return err
				}
				lo = lane + 1
			}
		}
		fold(lo, b.N)
		return nil
	}
	closer := func() error {
		err := s.flush(op, width, next)
		aggSlabs.Put(s)
		s = nil // the next task's slab now
		return err
	}
	return process, closer
}

// RunMapTask executes one map-side task: batch-scan the split, run the
// op chain and either emit shuffle pairs (Keys set) or hand batches to
// out. It fills the task's trace record with input/output counters.
func RunMapTask(env *Env, conf EngineConf, stage *Stage, mapIdx int, split dfs.Split,
	emit KVEmit, out MapSink, metrics *trace.Task) error {
	mw := &stage.Maps[mapIdx]
	if rs, ok := out.(RowSink); ok && rs == nil {
		out = nil // a nil RowSink, which shuffle stages may pass
	}

	var terminal batchSink
	switch {
	case mw.Keys != nil:
		var descs []bool
		if stage.Shuffle != nil {
			descs = stage.Shuffle.SortDescs
		}
		tagByte := byte(mw.Tag)
		keyKs, valKs := compileKernels(mw.Keys), compileKernels(mw.Values)
		keyVs := make([]vec.Vector, len(keyKs))
		valVs := make([]vec.Vector, len(valKs))
		valRow := make(types.Row, len(valKs))
		// Every pair is encoded into the same two buffers (KVEmit's
		// contract lets emit see them only during its call).
		var key, val []byte
		terminal = func(b *vec.Batch) error {
			if err := evalKernels(keyKs, b, keyVs); err != nil {
				return err
			}
			if err := evalKernels(valKs, b, valVs); err != nil {
				return err
			}
			for lane := 0; lane < b.N; lane++ {
				key, _ = appendLaneKey(key[:0], keyVs, lane, descs)
				for i := range valVs {
					valRow[i] = valVs[i].Datum(lane)
				}
				val = types.EncodeRow(append(val[:0], tagByte), valRow)
				if metrics != nil {
					metrics.OutputRecords++
					metrics.OutputBytes += int64(len(key) + len(val))
				}
				if err := emit(key, val); err != nil {
					return err
				}
			}
			return nil
		}
	case out != nil:
		terminal = func(b *vec.Batch) error {
			if metrics != nil {
				metrics.OutputRecords += int64(b.N)
			}
			return out.WriteBatch(b)
		}
	default:
		return fmt.Errorf("exec: map task %s/%d has neither shuffle nor sink", stage.ID, mapIdx)
	}

	c, err := buildChain(env, adaptOps(mw.Ops, conf), terminal)
	if err != nil {
		return err
	}
	if split.Path == "" {
		// Placeholder task for an empty input: nothing to read, but the
		// chain still closes so blocking operators flush.
		return c.close()
	}
	rd, err := scanSplit(env, mw.Input, split, func(b *vec.Batch) error {
		if metrics != nil {
			metrics.InputRecords += int64(b.N)
			metrics.Batches++
		}
		return c.process(b)
	})
	if err != nil {
		return err
	}
	if metrics != nil {
		var in int64
		if pr, ok := rd.(storage.PhysicalReader); ok {
			in = pr.PhysicalBytes()
		} else {
			in = split.Length
		}
		metrics.InputBytes += in
		if env.FS.MemResident(split.Path) {
			metrics.MemReadBytes += in
		}
	}
	return c.close()
}

// PartitionForKey selects the reducer for a shuffle key: hash of the
// leading partitionKeys columns' bytes (0 = whole key). Because keys
// are order-preserving encodings, hashing the prefix is equivalent to
// hashing the column values.
func PartitionForKey(key []byte, partitionKeys, totalKeys, numReducers int) int {
	prefix := key
	if partitionKeys > 0 && partitionKeys < totalKeys {
		prefix = keyPrefix(key, partitionKeys)
	}
	return int(fnvHash(prefix, fnvOffset64) % uint64(numReducers))
}

// FNV-1a parameters; fnvOffset64 doubles as the base seed, and the
// adaptation's split pass reseeds to decorrelate.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvHash(b []byte, seed uint64) uint64 {
	h := seed
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// keyPrefix returns the encoded bytes of the first n key columns.
func keyPrefix(key []byte, n int) []byte {
	pos := 0
	for i := 0; i < n && pos < len(key); i++ {
		switch key[pos] {
		case 0x00: // null (ascending)
			pos++
		case 0x01: // number
			pos += 9
		case 0x02: // string: scan for 0x00 0x00 terminator honouring escapes
			pos++
			for pos < len(key) {
				if key[pos] == 0x00 {
					if pos+1 < len(key) && key[pos+1] == 0xFF {
						pos += 2
						continue
					}
					pos += 2
					break
				}
				pos++
			}
		default:
			// Descending-encoded column: complement of the above tags.
			switch key[pos] {
			case 0xFF: // ^0x00 null
				pos++
			case 0xFE: // ^0x01 number
				pos += 9
			case 0xFD: // ^0x02 string
				pos++
				for pos < len(key) {
					if key[pos] == 0xFF {
						if pos+1 < len(key) && key[pos+1] == 0x00 {
							pos += 2
							continue
						}
						pos += 2
						break
					}
					pos++
				}
			default:
				return key // unknown tag; hash the whole key
			}
		}
	}
	return key[:pos]
}
