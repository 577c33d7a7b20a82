// Package dfs implements an HDFS-like distributed file system substrate:
// files are sequences of fixed-size blocks, each block is replicated on a
// subset of the cluster's data nodes, and jobs read files through input
// splits that carry block locality information.
//
// The store is in-memory (the simulated cluster is a single process) but
// preserves the architectural properties the paper depends on: block
// granularity, replica placement, split computation and data locality.
package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hivempi/internal/chaos"
	"hivempi/internal/imstore"
	"hivempi/internal/metrics"
)

// DefaultBlockSize matches the paper's HDFS configuration (64 MB),
// although tests and scaled benchmarks typically configure it smaller.
const DefaultBlockSize = 64 << 20

// ErrNotFound is returned when a path does not exist.
var ErrNotFound = errors.New("dfs: file not found")

// ErrExists is returned when creating a path that already exists.
var ErrExists = errors.New("dfs: file exists")

// ErrBlockUnavailable reports a block with no live replica; every
// BlockLostError unwraps to it.
var ErrBlockUnavailable = errors.New("dfs: no live replica for block")

// ErrNoLiveNodes reports a write with zero UP nodes to place on.
var ErrNoLiveNodes = errors.New("dfs: no live nodes to place block")

// BlockLostError is the typed read failure for a block whose replicas
// all lived on lost nodes. The scheduler uses the path to find and
// relaunch the stage that produced the file.
type BlockLostError struct {
	Path  string
	Block int
}

func (e *BlockLostError) Error() string {
	return fmt.Sprintf("dfs: block %d of %s lost with its nodes", e.Block, e.Path)
}

// Unwrap makes errors.Is(err, ErrBlockUnavailable) hold.
func (e *BlockLostError) Unwrap() error { return ErrBlockUnavailable }

// Config describes the simulated DFS deployment.
type Config struct {
	BlockSize   int64    // bytes per block; DefaultBlockSize if 0
	Replication int      // replicas per block; min(3, len(Nodes)) if 0
	Nodes       []string // data node host names; ["localhost"] if empty

	// Racks optionally names the rack of each node (parallel to Nodes;
	// missing entries default to "default"). Only the rack-aware
	// placement policy reads it.
	Racks []string

	// Seed seeds the placement RNG used for tie-breaking; the same
	// (config, workload) pair always places identically.
	Seed int64

	// Policy picks replica nodes for new and re-replicated blocks;
	// nil uses SpreadPolicy (least-loaded with balanced primaries).
	Policy PlacementPolicy
}

// FileSystem is the namespace plus block store.
type FileSystem struct {
	cfg Config

	mu    sync.RWMutex
	files map[string]*file

	// Node liveness and placement state, guarded by mu. Node indices
	// are stable for the filesystem's lifetime: dead nodes keep their
	// slot (marked down) and joins append.
	nodeIdx   map[string]int
	down      []bool
	load      []int // total replicas per node
	primaries []int // blocks whose first replica is the node
	rng       *rand.Rand

	// recoverySec accumulates the virtual seconds Repair charged
	// through the pricing hook (guarded by mu).
	recoverySec  float64
	repairCharge func(int64) float64 // guarded by faultMu; nil = no charge

	bytesRead  atomic.Int64
	bytesWrite atomic.Int64

	// Memory-tier byte counters: the subset of bytesRead/bytesWrite
	// served by files resident in the attached imstore.
	memBytesRead  atomic.Int64
	memBytesWrite atomic.Int64

	tierMu  sync.Mutex
	memTier *imstore.Store // in-memory intermediate tier; nil = disk only

	faultMu sync.Mutex
	plane   *chaos.Plane // fault-injection plane; nil = no faults

	// Observability counters, cached as atomic pointers so the hot
	// read/write paths skip the registry map. A nil counter is a no-op,
	// so unattached filesystems pay one atomic load per I/O.
	ctrRead     atomic.Pointer[metrics.Counter]
	ctrWrite    atomic.Pointer[metrics.Counter]
	ctrMemRead  atomic.Pointer[metrics.Counter]
	ctrMemWrite atomic.Pointer[metrics.Counter]

	// Node-loss recovery metrics (cached for the same reason; the
	// failover/lost counters sit on the read hot path).
	ctrFailover    atomic.Pointer[metrics.Counter]
	ctrLostBlocks  atomic.Pointer[metrics.Counter]
	ctrRereplBlk   atomic.Pointer[metrics.Counter]
	ctrRereplBytes atomic.Pointer[metrics.Counter]
	gUnderRepl     atomic.Pointer[metrics.Gauge]
	gDegraded      atomic.Pointer[metrics.Gauge]
}

// ErrInjectedFault is the error injected reads and writes wrap. It is
// the chaos sentinel itself, so errors.Is works uniformly with either
// chaos.ErrInjected or this compatibility alias.
var ErrInjectedFault = chaos.ErrInjected

// SetMemTier attaches the in-memory intermediate store; nil detaches
// it. Tier placement is decided when a writer closes: eligible files
// that fit the store's budget become memory-resident, the rest stay on
// the disk tier. The DFS keeps all blocks in process memory either way
// (the cluster is simulated); the tier only changes cost accounting.
func (fs *FileSystem) SetMemTier(s *imstore.Store) {
	fs.tierMu.Lock()
	defer fs.tierMu.Unlock()
	fs.memTier = s
}

// memStore returns the attached memory tier (possibly nil).
func (fs *FileSystem) memStore() *imstore.Store {
	fs.tierMu.Lock()
	defer fs.tierMu.Unlock()
	return fs.memTier
}

// MemResident reports whether the file is held in the memory tier.
func (fs *FileSystem) MemResident(p string) bool {
	s := fs.memStore()
	return s != nil && s.Resident(clean(p))
}

// SetMetrics attaches an observability registry: cumulative disk- and
// memory-tier I/O bytes are published under the metrics.CtrDFS* names.
// A nil registry detaches (the counters become no-ops again).
func (fs *FileSystem) SetMetrics(r *metrics.Registry) {
	fs.ctrRead.Store(r.Counter(metrics.CtrDFSReadBytes))
	fs.ctrWrite.Store(r.Counter(metrics.CtrDFSWriteBytes))
	fs.ctrMemRead.Store(r.Counter(metrics.CtrDFSMemReadBytes))
	fs.ctrMemWrite.Store(r.Counter(metrics.CtrDFSMemWriteBytes))
	fs.ctrFailover.Store(r.Counter(metrics.CtrDFSReadFailovers))
	fs.ctrLostBlocks.Store(r.Counter(metrics.CtrDFSLostBlocks))
	fs.ctrRereplBlk.Store(r.Counter(metrics.CtrDFSRereplBlocks))
	fs.ctrRereplBytes.Store(r.Counter(metrics.CtrDFSRereplBytes))
	fs.gUnderRepl.Store(r.Gauge(metrics.GaugeDFSUnderRepl))
	fs.gDegraded.Store(r.Gauge(metrics.GaugeDFSDegradedRepl))
	fs.mu.Lock()
	fs.publishHealthLocked()
	fs.mu.Unlock()
}

// SetRepairCharge installs the pricing hook Repair uses to convert
// re-replicated bytes into virtual seconds (typically the perfmodel's
// RereplicationSeconds). Nil disables charging.
func (fs *FileSystem) SetRepairCharge(fn func(int64) float64) {
	fs.faultMu.Lock()
	defer fs.faultMu.Unlock()
	fs.repairCharge = fn
}

func (fs *FileSystem) repairChargeFn() func(int64) float64 {
	fs.faultMu.Lock()
	defer fs.faultMu.Unlock()
	return fs.repairCharge
}

// SetChaos attaches a fault-injection plane; nil detaches it.
func (fs *FileSystem) SetChaos(p *chaos.Plane) {
	fs.faultMu.Lock()
	defer fs.faultMu.Unlock()
	fs.plane = p
}

// chaosPlane returns the attached plane (possibly nil; chaos methods
// are nil-safe).
func (fs *FileSystem) chaosPlane() *chaos.Plane {
	fs.faultMu.Lock()
	defer fs.faultMu.Unlock()
	return fs.plane
}

// ensurePlane returns the attached plane, lazily arming an empty one so
// the Inject*Fault hooks work without an explicit SetChaos.
func (fs *FileSystem) ensurePlane() *chaos.Plane {
	fs.faultMu.Lock()
	defer fs.faultMu.Unlock()
	if fs.plane == nil {
		fs.plane = chaos.NewPlane(chaos.Plan{})
	}
	return fs.plane
}

// InjectReadFault makes the next n reads of path fail with
// ErrInjectedFault (testing hook for fault-tolerance paths).
func (fs *FileSystem) InjectReadFault(p string, n int) {
	fs.ensurePlane().Add(chaos.Spec{Kind: chaos.DFSRead, Path: clean(p), Count: n})
}

// InjectWriteFault makes the next n writes to path fail with
// ErrInjectedFault, symmetric to InjectReadFault.
func (fs *FileSystem) InjectWriteFault(p string, n int) {
	fs.ensurePlane().Add(chaos.Spec{Kind: chaos.DFSWrite, Path: clean(p), Count: n})
}

type block struct {
	data     []byte
	replicas []int // indices into cfg.Nodes
}

type file struct {
	blocks []*block
	size   int64
}

// New creates an empty file system. A Replication target above the
// node count is kept (not clamped): blocks are placed on every node
// there is, the shortfall is recorded as a degraded-replication gauge,
// and Repair lazily restores the factor when nodes join.
func New(cfg Config) *FileSystem {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []string{"localhost"}
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 3
		if cfg.Replication > len(cfg.Nodes) {
			cfg.Replication = len(cfg.Nodes)
		}
	}
	cfg.Nodes = append([]string{}, cfg.Nodes...)
	for len(cfg.Racks) < len(cfg.Nodes) {
		cfg.Racks = append(cfg.Racks, "default")
	}
	if cfg.Policy == nil {
		cfg.Policy = SpreadPolicy{}
	}
	fs := &FileSystem{
		cfg:       cfg,
		files:     make(map[string]*file),
		nodeIdx:   make(map[string]int, len(cfg.Nodes)),
		down:      make([]bool, len(cfg.Nodes)),
		load:      make([]int, len(cfg.Nodes)),
		primaries: make([]int, len(cfg.Nodes)),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
	for i, n := range cfg.Nodes {
		fs.nodeIdx[n] = i
	}
	return fs
}

// Config returns the deployment configuration (Nodes is a copy; the
// live slice grows when nodes join).
func (fs *FileSystem) Config() Config {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	cfg := fs.cfg
	cfg.Nodes = append([]string{}, fs.cfg.Nodes...)
	cfg.Racks = append([]string{}, fs.cfg.Racks...)
	return cfg
}

// BytesRead returns the cumulative bytes served to readers.
func (fs *FileSystem) BytesRead() int64 { return fs.bytesRead.Load() }

// BytesWritten returns the cumulative bytes accepted from writers.
func (fs *FileSystem) BytesWritten() int64 { return fs.bytesWrite.Load() }

// MemBytesRead returns the cumulative bytes served from memory-tier files.
func (fs *FileSystem) MemBytesRead() int64 { return fs.memBytesRead.Load() }

// MemBytesWritten returns the cumulative bytes written into memory-tier files.
func (fs *FileSystem) MemBytesWritten() int64 { return fs.memBytesWrite.Load() }

func clean(p string) string {
	p = path.Clean("/" + p)
	return p
}

// Exists reports whether the path holds a file.
func (fs *FileSystem) Exists(p string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[clean(p)]
	return ok
}

// Size returns the byte length of the file.
func (fs *FileSystem) Size(p string) (int64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[clean(p)]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	return f.size, nil
}

// List returns the paths under the given directory prefix, sorted.
func (fs *FileSystem) List(dir string) []string {
	dir = clean(dir)
	if !strings.HasSuffix(dir, "/") {
		dir += "/"
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, dir) {
			//lint:ignore hivelint/hotalloc the match count is unknown until the namespace walk ends, and callers list once per stage input or map-join build, never per row
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Delete removes a file; deleting a missing file is not an error.
// Memory-tier residency is released inside the namespace critical
// section: with a split release, a concurrent Writer.Close could
// re-admit the path between the delete and the release, leaving a
// deleted file resident and its tier budget leaked. Lock order is
// fs.mu -> tierMu -> store.mu; the store never calls back into dfs.
func (fs *FileSystem) Delete(p string) {
	p = clean(p)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.files, p)
	if s := fs.memStore(); s != nil {
		s.Release(p)
	}
}

// DeleteDir removes every file under the directory prefix, releasing
// memory-tier residency atomically with the namespace removal (see
// Delete for why the split version races with Close/Rename admission).
func (fs *FileSystem) DeleteDir(dir string) {
	dir = clean(dir)
	if !strings.HasSuffix(dir, "/") {
		dir += "/"
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s := fs.memStore()
	for p := range fs.files {
		if strings.HasPrefix(p, dir) {
			delete(fs.files, p)
			if s != nil {
				s.Release(p)
			}
		}
	}
}

// Rename moves src to dst atomically, replacing dst. Memory-tier
// residency follows the file to its new name (re-admitted under the
// destination path, which may fall outside the tier's roots). The
// residency move shares the namespace critical section: done outside
// it, a concurrent DeleteDir covering dst could release the old dst
// reservation and then lose against this re-admission, leaving a
// deleted path resident — or see src already renamed away and leak its
// budget.
func (fs *FileSystem) Rename(src, dst string) error {
	src, dst = clean(src), clean(dst)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[src]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, src)
	}
	delete(fs.files, src)
	fs.files[dst] = f
	if s := fs.memStore(); s != nil {
		wasResident := s.Resident(src)
		s.Release(src)
		s.Release(dst)
		if wasResident {
			s.TryAdmit(dst, f.size)
		}
	}
	return nil
}

// placeReplicasLocked picks up to Replication distinct UP nodes for a
// new block through the placement policy, updating the load/primary
// accounting. Fewer than the target is a degraded (under-replicated)
// placement that Repair later fixes; zero UP nodes is an error.
// Callers hold fs.mu.
func (fs *FileSystem) placeReplicasLocked() ([]int, error) {
	reps := fs.cfg.Policy.Place(fs.placementViewLocked(), fs.cfg.Replication, nil, fs.rng)
	if len(reps) == 0 {
		return nil, ErrNoLiveNodes
	}
	fs.primaries[reps[0]]++
	for _, r := range reps {
		fs.load[r]++
	}
	return reps, nil
}

// placementViewLocked snapshots the state policies read. The slices
// alias fs state; policies must treat the view as read-only.
func (fs *FileSystem) placementViewLocked() *PlacementView {
	up := make([]bool, len(fs.cfg.Nodes))
	for i := range up {
		up[i] = !fs.down[i]
	}
	return &PlacementView{
		Nodes:     fs.cfg.Nodes,
		Racks:     fs.cfg.Racks,
		Up:        up,
		Load:      fs.load,
		Primaries: fs.primaries,
	}
}

// Create opens a new file for writing. The returned writer buffers into
// blocks; Close must be called to publish the file.
func (fs *FileSystem) Create(p string) (*Writer, error) {
	p = clean(p)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[p]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, p)
	}
	// Reserve the name so concurrent creators collide deterministically.
	fs.files[p] = &file{}
	return &Writer{fs: fs, path: p, f: fs.files[p]}, nil
}

// CreateOverwrite creates p, replacing any existing file.
func (fs *FileSystem) CreateOverwrite(p string) (*Writer, error) {
	fs.Delete(p)
	return fs.Create(p)
}

// Writer appends data to a file, cutting blocks at the block size.
type Writer struct {
	fs     *FileSystem
	path   string
	f      *file
	cur    []byte
	closed bool
}

var _ io.WriteCloser = (*Writer)(nil)

// Write buffers p into the current block, cutting new blocks as needed.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("dfs: write to closed writer for %s", w.path)
	}
	if err := w.fs.chaosPlane().DFSWrite(w.path); err != nil {
		return 0, err
	}
	total := len(p)
	bs := int(w.fs.cfg.BlockSize)
	for len(p) > 0 {
		room := bs - len(w.cur)
		if room == 0 {
			if err := w.flushBlock(); err != nil {
				return total - len(p), err
			}
			// A file past its first block is a big one: give each
			// further block its whole size at once, not by append
			// doubling. The first block still grows by append, so a
			// small file holds only what it was written.
			w.cur = make([]byte, 0, bs)
			room = bs
		}
		n := len(p)
		if n > room {
			n = room
		}
		w.cur = append(w.cur, p[:n]...)
		p = p[n:]
	}
	w.fs.bytesWrite.Add(int64(total))
	w.fs.ctrWrite.Load().Add(int64(total))
	return total, nil
}

func (w *Writer) flushBlock() error {
	w.fs.mu.Lock()
	reps, err := w.fs.placeReplicasLocked()
	if err != nil {
		w.fs.mu.Unlock()
		return fmt.Errorf("%w (writing %s)", err, w.path)
	}
	b := &block{data: w.cur, replicas: reps}
	w.f.blocks = append(w.f.blocks, b)
	w.f.size += int64(len(w.cur))
	w.fs.mu.Unlock()
	w.cur = nil
	return nil
}

// Close publishes the final partial block and decides the file's tier:
// eligible files that fit the memory store's budget become resident,
// the rest stay on the disk tier (the "transparent spill").
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.cur) > 0 {
		// A last block that was made at the whole block size keeps
		// only what it holds, so a file's heap stays near its size,
		// which is what the memory tier admits it by.
		if len(w.f.blocks) > 0 && len(w.cur) < cap(w.cur)/2 {
			w.cur = bytes.Clone(w.cur)
		}
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	s := w.fs.memStore()
	if s == nil {
		return nil
	}
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	// Admit only while the file is still published under this writer's
	// path: a Delete/DeleteDir/Rename sneaking between the final flush
	// and an unlocked admission would leave an unreachable file holding
	// tier budget forever.
	if w.fs.files[w.path] != w.f {
		return nil
	}
	if s.TryAdmit(w.path, w.f.size) {
		w.fs.memBytesWrite.Add(w.f.size)
		w.fs.ctrMemWrite.Load().Add(w.f.size)
	}
	return nil
}

// Open returns a random-access reader over the file.
func (fs *FileSystem) Open(p string) (*Reader, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[clean(p)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	// Tier is fixed at Writer.Close and files are immutable once
	// published, so it is safe to latch residency per reader.
	return &Reader{fs: fs, f: f, size: f.size, path: clean(p), mem: fs.MemResident(p)}, nil
}

// Reader reads a file sequentially or at random offsets.
type Reader struct {
	fs   *FileSystem
	f    *file
	size int64
	off  int64
	path string
	mem  bool // file was memory-tier resident when opened
}

var (
	_ io.ReadSeeker = (*Reader)(nil)
	_ io.ReaderAt   = (*Reader)(nil)
)

// Size returns the total file length.
func (r *Reader) Size() int64 { return r.size }

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.ReadAt(p, r.off)
	r.off += int64(n)
	return n, err
}

// ReadAt implements io.ReaderAt.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if err := r.fs.chaosPlane().DFSRead(r.path); err != nil {
		return 0, err
	}
	if off >= r.size {
		return 0, io.EOF
	}
	bs := r.fs.cfg.BlockSize
	n := 0
	for n < len(p) && off < r.size {
		bi := int(off / bs)
		bo := off % bs
		r.fs.mu.RLock()
		blk := r.f.blocks[bi]
		// Serve the read from a live replica: when the primary's node is
		// down the read fails over to a surviving copy; when every
		// replica lived on lost nodes the block is gone for good.
		live := -1
		for _, rep := range blk.replicas {
			if !r.fs.down[rep] {
				live = rep
				break
			}
		}
		if live < 0 {
			r.fs.mu.RUnlock()
			return n, &BlockLostError{Path: r.path, Block: bi}
		}
		if len(blk.replicas) > 0 && live != blk.replicas[0] {
			r.fs.ctrFailover.Load().Inc()
		}
		c := copy(p[n:], blk.data[bo:])
		r.fs.mu.RUnlock()
		n += c
		off += int64(c)
	}
	r.fs.bytesRead.Add(int64(n))
	r.fs.ctrRead.Load().Add(int64(n))
	if r.mem {
		r.fs.memBytesRead.Add(int64(n))
		r.fs.ctrMemRead.Load().Add(int64(n))
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Seek implements io.Seeker.
func (r *Reader) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = r.off + offset
	case io.SeekEnd:
		abs = r.size + offset
	default:
		return 0, fmt.Errorf("dfs: invalid seek whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("dfs: negative seek offset %d", abs)
	}
	r.off = abs
	return abs, nil
}

// ReadFile reads the whole file into memory.
func (fs *FileSystem) ReadFile(p string) ([]byte, error) {
	r, err := fs.Open(p)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, r.Size())
	if _, err := io.ReadFull(r, buf); err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return buf, nil
}

// WriteFile writes data to p, replacing any existing file.
func (fs *FileSystem) WriteFile(p string, data []byte) error {
	w, err := fs.CreateOverwrite(p)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// Split is a contiguous byte range of a file handed to one map/O task,
// with the hosts holding replicas of the range's first block.
type Split struct {
	Path   string
	Offset int64
	Length int64
	Hosts  []string
}

// Splits chops the file into splits of at most splitSize bytes, aligned
// to block boundaries as HDFS does (splitSize <= 0 uses the block size).
func (fs *FileSystem) Splits(p string, splitSize int64) ([]Split, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[clean(p)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	if splitSize <= 0 {
		splitSize = fs.cfg.BlockSize
	}
	var splits []Split
	var off int64
	for off < f.size {
		l := splitSize
		if off+l > f.size {
			l = f.size - off
		}
		bi := int(off / fs.cfg.BlockSize)
		blk := f.blocks[bi]
		hosts := make([]string, len(blk.replicas))
		for i, r := range blk.replicas {
			hosts[i] = fs.cfg.Nodes[r]
		}
		splits = append(splits, Split{Path: clean(p), Offset: off, Length: l, Hosts: hosts})
		off += l
	}
	return splits, nil
}

// SectionReader returns a reader restricted to a split's byte range.
func (fs *FileSystem) SectionReader(s Split) (*io.SectionReader, error) {
	r, err := fs.Open(s.Path)
	if err != nil {
		return nil, err
	}
	return io.NewSectionReader(r, s.Offset, s.Length), nil
}
