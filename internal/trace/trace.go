// Package trace defines the structured execution metrics emitted by
// both execution engines (Hadoop MapReduce and DataMPI). The perfmodel
// package replays these traces onto a simulated cluster to obtain the
// paper's timing figures, and the bench harness aggregates them into
// tables.
package trace

import (
	"sort"
	"sync"
)

// TaskKind distinguishes producer and consumer tasks across engines.
type TaskKind int

// Task kinds. Map/OTask are producers; Reduce/ATask are consumers.
const (
	KindMap TaskKind = iota + 1
	KindReduce
	KindOTask
	KindATask
)

// String returns a short label for the kind.
func (k TaskKind) String() string {
	switch k {
	case KindMap:
		return "map"
	case KindReduce:
		return "reduce"
	case KindOTask:
		return "o"
	case KindATask:
		return "a"
	default:
		return "?"
	}
}

// SizeHistogram counts emitted key-value pair sizes. Sizes up to
// exactBuckets-1 are tracked per byte (the paper's Fig. 2 needs
// byte-resolution around 14 B and 32 B); larger sizes fall into
// power-of-two overflow buckets.
type SizeHistogram struct {
	Exact    []int64 // index = size in bytes
	Overflow map[int]int64
}

const exactBuckets = 512

// NewSizeHistogram returns an empty histogram.
func NewSizeHistogram() *SizeHistogram {
	return &SizeHistogram{Exact: make([]int64, exactBuckets), Overflow: make(map[int]int64)}
}

// Observe records one pair of the given size.
func (h *SizeHistogram) Observe(size int) {
	if size < 0 {
		return
	}
	if size < exactBuckets {
		h.Exact[size]++
		return
	}
	bucket := exactBuckets
	for bucket*2 <= size {
		bucket *= 2
	}
	h.Overflow[bucket]++
}

// Total returns the number of observations.
func (h *SizeHistogram) Total() int64 {
	var t int64
	for _, c := range h.Exact {
		t += c
	}
	for _, c := range h.Overflow {
		t += c
	}
	return t
}

// Merge folds other into h.
func (h *SizeHistogram) Merge(other *SizeHistogram) {
	if other == nil {
		return
	}
	for i, c := range other.Exact {
		h.Exact[i] += c
	}
	for b, c := range other.Overflow {
		h.Overflow[b] += c
	}
}

// Mode returns the most frequent exact size (paper: 14 B / 32 B peaks).
func (h *SizeHistogram) Mode() int {
	best, bestCount := 0, int64(-1)
	for i, c := range h.Exact {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	return best
}

// TopSizes returns the n most frequent exact sizes in descending count order.
func (h *SizeHistogram) TopSizes(n int) []int {
	type sc struct {
		size  int
		count int64
	}
	all := make([]sc, 0, 16)
	for i, c := range h.Exact {
		if c > 0 {
			all = append(all, sc{i, c})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].size < all[j].size
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].size
	}
	return out
}

// Task captures the work one task performed. Progress marks allow the
// perfmodel to reconstruct intra-task timelines (collect sequences,
// send timelines) without wall-clock timestamps.
type Task struct {
	ID   int
	Kind TaskKind
	Host string

	InputBytes    int64
	InputRecords  int64
	OutputBytes   int64
	OutputRecords int64

	// Producer-side shuffle: bytes destined to each consumer partition.
	ShuffleOutBytes  int64
	PartitionBytes   []int64
	ShuffleOutPairs  int64
	CollectSizes     *SizeHistogram
	SendEvents       []SendEvent // one per buffer-manager flush
	WaitRounds       int64       // blocking-style synchronization rounds
	SpillCount       int64
	SpillBytes       int64
	ShuffleInBytes   int64 // consumer-side received bytes
	ShuffleInPairs   int64
	MergeRuns        int64
	CombineInPairs   int64
	CombineOutPairs  int64
	LocalRead        bool // split was replica-local to the task's host
	SortedBytes      int64
	ReduceGroups     int64
	WriteBytes       int64
	GCPressureBytes  int64 // bytes of application memory displaced by caching
	MemoryCacheBytes int64 // intermediate bytes held in memory (not spilled)

	// Memory-tier I/O: the subset of InputBytes / WriteBytes served by
	// the in-memory intermediate store instead of disk. The perfmodel
	// charges these at memory bandwidth.
	MemReadBytes  int64
	MemWriteBytes int64

	// Fault-tolerance accounting.
	Attempts          int     // execution attempts (0 or 1 = ran once)
	StragglerDelaySec float64 // virtual slowdown charged to this task
	Speculative       bool    // a speculative duplicate was launched
	PredictiveSpec    bool    // backup pre-launched on predicted skew, not observed lag
	Recovered         bool    // output replayed from a checkpoint

	// Communication-plane accounting (datampi). Producers: peak Send
	// Partition List occupancy and how many residual flushes finalize
	// forced out (vs. threshold-triggered). Consumers: data messages
	// absorbed by the receive loop.
	BufPeakBytes  int64
	ForcedFlushes int64
	RecvRounds    int64

	// Batches counts the column batches a map task pushed through its
	// operator chain (0 for reduce tasks).
	Batches int64
}

// SendEvent records one flush from the buffer manager to the wire:
// which fraction of the task's input had been consumed when the flush
// happened (for timeline reconstruction) and how many bytes moved.
type SendEvent struct {
	Progress float64 // 0..1 of task input consumed at flush time
	Bytes    int64
	Dest     int
}

// Stage is the execution record of one MapReduce/DataMPI job stage.
type Stage struct {
	Name      string
	Engine    string // "hadoop" or "datampi"
	NumMaps   int
	NumReds   int
	Producers []*Task
	Consumers []*Task

	// Engine configuration relevant to the cost model.
	NonBlocking    bool
	MemUsedPercent float64
	SendQueueSize  int

	// LaunchCommand records the equivalent job launch line (the
	// DataMPI engine's mpidrun invocation), for diagnostics.
	LaunchCommand string

	// Fault-tolerance accounting.
	Attempts         int     // job-level attempts (0 or 1 = ran once)
	RetryBackoffSec  float64 // virtual backoff spent between attempts
	ChaosDelaySec    float64 // injected message delay charged to the stage
	TaskRetries      int     // per-task re-executions within the job
	RereplicationSec float64 // DFS re-replication bandwidth charged after the stage
	Relaunched       bool    // stage re-executed because its output died with a node

	// Skew-adaptive accounting: base buckets split/fused by the adapt
	// runtime before launch, and the virtual planning cost charged.
	AdaptSplit int
	AdaptFused int
	AdaptSec   float64

	// DependsOn names the stages whose output this stage reads (the
	// query's stage DAG). The perfmodel uses it for critical-path
	// virtual-time accounting when the query ran DAG-overlapped.
	DependsOn []string

	// Comm is the per-(producer, consumer) communication matrix the
	// engine recorded for this stage's shuffle (nil for map-only stages
	// or engines that did not record one; the obs/comm analyzer then
	// falls back to the producers' PartitionBytes).
	Comm *CommMatrix
}

// TotalShuffleBytes sums producer shuffle output.
func (s *Stage) TotalShuffleBytes() int64 {
	var t int64
	for _, p := range s.Producers {
		t += p.ShuffleOutBytes
	}
	return t
}

// TotalInputBytes sums producer input bytes.
func (s *Stage) TotalInputBytes() int64 {
	var t int64
	for _, p := range s.Producers {
		t += p.InputBytes
	}
	return t
}

// TotalOutputBytes sums consumer write bytes (or producer writes for
// map-only stages).
func (s *Stage) TotalOutputBytes() int64 {
	var t int64
	for _, c := range s.Consumers {
		t += c.WriteBytes
	}
	if t == 0 {
		for _, p := range s.Producers {
			t += p.WriteBytes
		}
	}
	return t
}

// Query is the trace of one HiveQL statement: compilation plus a DAG of
// stages executed in order.
type Query struct {
	Statement string
	Stages    []*Stage
	// Overlapped marks that independent stages ran concurrently (DAG
	// scheduling): virtual time is then the critical path through the
	// stage DAG instead of the serial sum.
	Overlapped bool
	// CachedPlan marks that the driver served this statement from the
	// compiled-plan cache, skipping parse/plan (the perfmodel then drops
	// the compile charge from the query's virtual time).
	CachedPlan bool
}

// Collector accumulates stages from concurrently running tasks.
type Collector struct {
	mu      sync.Mutex
	queries []*Query
	current *Query
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// BeginQuery starts a new query record.
func (c *Collector) BeginQuery(statement string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.current = &Query{Statement: statement}
	c.queries = append(c.queries, c.current)
}

// MarkOverlapped flags the current query as DAG-overlapped (creating an
// anonymous query if none was begun).
func (c *Collector) MarkOverlapped() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current == nil {
		c.current = &Query{Statement: "(anonymous)"}
		c.queries = append(c.queries, c.current)
	}
	c.current.Overlapped = true
}

// MarkCachedPlan flags the current query as served from the
// compiled-plan cache (creating an anonymous query if none was begun).
func (c *Collector) MarkCachedPlan() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current == nil {
		c.current = &Query{Statement: "(anonymous)"}
		c.queries = append(c.queries, c.current)
	}
	c.current.CachedPlan = true
}

// AddStage appends a completed stage to the current query (creating an
// anonymous query if none was begun).
func (c *Collector) AddStage(s *Stage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current == nil {
		c.current = &Query{Statement: "(anonymous)"}
		c.queries = append(c.queries, c.current)
	}
	c.current.Stages = append(c.current.Stages, s)
}

// Queries returns the recorded queries.
func (c *Collector) Queries() []*Query {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Query, len(c.queries))
	copy(out, c.queries)
	return out
}

// AllStages flattens every stage across queries.
func (c *Collector) AllStages() []*Stage {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Stage
	for _, q := range c.queries {
		out = append(out, q.Stages...)
	}
	return out
}

// Reset drops all recorded queries.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queries = nil
	c.current = nil
}
