// Package hadoop implements the baseline MapReduce execution engine the
// paper compares against: a slot-scheduled job runner where map tasks
// partition, sort and spill their output into sorted runs, and reduce
// tasks pull completed map outputs (the copy phase can only start once
// at least one map task has finished), merge the sorted segments and
// run the reducer over key groups.
//
// The structural differences from the DataMPI engine are deliberate and
// are exactly what the paper measures: pull-based coarse-grained
// shuffle versus push-based fine-grained overlap, and mandatory local
// disk materialization of map output versus in-memory caching. The
// disk is modeled, not used: spills and map outputs are pooled
// in-memory runs, and the performance model charges their disk time
// from the task counters (SpillBytes, SpillCount, ShuffleOutBytes,
// MergeRuns).
package hadoop

import (
	"errors"
	"fmt"
	"sync"

	"hivempi/internal/kvio"
	"hivempi/internal/trace"
)

// Defaults mirroring the paper's Hadoop 1.2.1 configuration.
const (
	DefaultSortBufferBytes = 1 << 20 // io.sort.mb analogue (scaled)
	DefaultMapSlots        = 4
	DefaultReduceSlots     = 4
)

// Partitioner routes a key to one of n reduce tasks.
type Partitioner func(key []byte, n int) int

// Combiner optionally folds same-key values during the map-side sort.
type Combiner func(key []byte, values [][]byte) [][]byte

// Config describes one MapReduce job.
type Config struct {
	NumMaps    int
	NumReduces int

	Partitioner     Partitioner
	Combiner        Combiner
	SortBufferBytes int // map-side buffer before a sort+spill
	MapSlots        int // concurrent map tasks (cluster-wide)
	ReduceSlots     int // concurrent reduce tasks

	// SpillDir is ignored: spills and map outputs are in-memory runs.
	// It stays only for callers that still set it.
	SpillDir string

	// Hosts optionally assigns map task i to Hosts[i] for locality
	// accounting (length NumMaps when set).
	Hosts []string

	// MaxAttempts re-runs a failed map task (mapred.map.max.attempts;
	// MapReduce's fault tolerance — the DataMPI engine deliberately has
	// none, like MPI). Default 1 (no retry).
	MaxAttempts int
}

func (c *Config) fill() error {
	if c.NumMaps <= 0 {
		return fmt.Errorf("hadoop: NumMaps=%d must be positive", c.NumMaps)
	}
	if c.NumReduces < 0 {
		return fmt.Errorf("hadoop: NumReduces=%d must be non-negative", c.NumReduces)
	}
	if c.Partitioner == nil {
		c.Partitioner = defaultPartitioner
	}
	if c.SortBufferBytes <= 0 {
		c.SortBufferBytes = DefaultSortBufferBytes
	}
	if c.MapSlots <= 0 {
		c.MapSlots = DefaultMapSlots
	}
	if c.ReduceSlots <= 0 {
		c.ReduceSlots = DefaultReduceSlots
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 1
	}
	if c.Hosts != nil && len(c.Hosts) != c.NumMaps {
		return fmt.Errorf("hadoop: Hosts has %d entries, want %d", len(c.Hosts), c.NumMaps)
	}
	return nil
}

func defaultPartitioner(key []byte, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(n))
}

// MapBody is the map task body: read the task's input and emit pairs.
type MapBody func(*MapContext) error

// ReduceBody is the reduce task body: consume key groups.
type ReduceBody func(*ReduceContext) error

// Job is one MapReduce execution.
type Job struct {
	cfg Config

	mapMetrics    []*trace.Task
	reduceMetrics []*trace.Task

	// comm is the stage's communication matrix, recorded by the reduce
	// copy phase (one segment pull per completed (map, reduce) pair).
	comm *trace.CommMatrix

	// mapOutputs[m] is set when map m completes; reducers pull from it.
	mapOutputs []*mapOutput
	completed  chan int // map IDs in completion order
}

// mapOutput is one sorted, partition-indexed run: a spill while its
// map task runs, and the task's published output (the file.out + index
// of real Hadoop) once it completes. offsets[p]..offsets[p+1] delimit
// partition p in the run's bytes; a task that emitted nothing publishes
// all-zero offsets and no run.
type mapOutput struct {
	run     *kvio.Run
	offsets []int64 // len NumReduces+1
}

// size returns partition p's length in bytes.
func (mo *mapOutput) size(p int) int { return int(mo.offsets[p+1] - mo.offsets[p]) }

// segment returns partition p's wire bytes, capped at the partition's
// end. It aliases the run, so it is valid until discard.
func (mo *mapOutput) segment(p int) []byte {
	if mo.size(p) == 0 {
		return nil
	}
	return mo.run.Bytes()[mo.offsets[p]:mo.offsets[p+1]:mo.offsets[p+1]]
}

// out is the run to append the output to, taken from the pool with
// room for size bytes on first use, so an output nothing is written to
// holds no run.
func (mo *mapOutput) out(size int) *kvio.Run {
	if mo.run == nil {
		mo.run = kvio.GetRun()
		mo.run.Reserve(size)
	}
	return mo.run
}

// written is the number of bytes appended to the output so far.
func (mo *mapOutput) written() int64 {
	if mo.run == nil {
		return 0
	}
	return int64(mo.run.Size())
}

// discard hands the run back to the pool; a second call is a no-op.
func (mo *mapOutput) discard() {
	if mo.run != nil {
		mo.run.Release()
		mo.run = nil
	}
}

// NewJob validates the configuration.
func NewJob(cfg Config) (*Job, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	j := &Job{cfg: cfg}
	j.mapMetrics = make([]*trace.Task, cfg.NumMaps)
	for i := range j.mapMetrics {
		host := ""
		if cfg.Hosts != nil {
			host = cfg.Hosts[i]
		}
		j.mapMetrics[i] = &trace.Task{ID: i, Kind: trace.KindMap,
			Host: host, CollectSizes: trace.NewSizeHistogram(),
			PartitionBytes: make([]int64, cfg.NumReduces)}
	}
	j.reduceMetrics = make([]*trace.Task, cfg.NumReduces)
	for i := range j.reduceMetrics {
		j.reduceMetrics[i] = &trace.Task{ID: i, Kind: trace.KindReduce}
	}
	j.mapOutputs = make([]*mapOutput, cfg.NumMaps)
	j.completed = make(chan int, cfg.NumMaps)
	j.comm = trace.NewCommMatrix(cfg.NumMaps, cfg.NumReduces)
	return j, nil
}

// Comm returns the job's communication matrix (valid after Run; nil for
// map-only jobs). Cell (m, r) holds the post-combiner segment bytes
// reduce r pulled from map m, so row sums reconcile with the maps'
// ShuffleOutBytes and column sums with the reduces' ShuffleInBytes.
func (j *Job) Comm() *trace.CommMatrix { return j.comm }

// MapMetrics returns the per-map-task trace records (valid after Run).
func (j *Job) MapMetrics() []*trace.Task { return j.mapMetrics }

// ReduceMetrics returns the per-reduce-task trace records.
func (j *Job) ReduceMetrics() []*trace.Task { return j.reduceMetrics }

// Run executes the job: map tasks run under the map-slot pool; reduce
// tasks run under the reduce-slot pool, each pulling its partition from
// every completed map output, merging and reducing.
func (j *Job) Run(mapBody MapBody, reduceBody ReduceBody) error {
	defer j.cleanup()

	mapErrs := make([]error, j.cfg.NumMaps)
	redErrs := make([]error, max(j.cfg.NumReduces, 1))

	var wg sync.WaitGroup

	// Reduce tasks start immediately: their copy loops block on the
	// completion channel, so copying overlaps the tail of the map phase
	// but no segment moves before its producing map finished.
	redSem := make(chan struct{}, j.cfg.ReduceSlots)
	if j.cfg.NumReduces > 0 {
		fanout := newCompletionFanout(j.completed, j.cfg.NumMaps, j.cfg.NumReduces)
		for r := 0; r < j.cfg.NumReduces; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				redSem <- struct{}{}
				defer func() { <-redSem }()
				redErrs[r] = j.runReduce(r, fanout.subscribe(r), reduceBody)
			}(r)
		}
	}

	mapSem := make(chan struct{}, j.cfg.MapSlots)
	for m := 0; m < j.cfg.NumMaps; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			mapSem <- struct{}{}
			defer func() { <-mapSem }()
			mapErrs[m] = j.runMap(m, mapBody)
			j.completed <- m
		}(m)
	}

	wg.Wait()
	return errors.Join(errors.Join(mapErrs...), errors.Join(redErrs...))
}

// completionFanout replicates the map-completion stream to every reducer.
type completionFanout struct {
	subs []chan int
}

func newCompletionFanout(src chan int, numMaps, numReduces int) *completionFanout {
	f := &completionFanout{subs: make([]chan int, numReduces)}
	for i := range f.subs {
		f.subs[i] = make(chan int, numMaps)
	}
	go func() {
		for i := 0; i < numMaps; i++ {
			m := <-src
			for _, s := range f.subs {
				s <- m
			}
		}
		for _, s := range f.subs {
			close(s)
		}
	}()
	return f
}

func (f *completionFanout) subscribe(r int) <-chan int { return f.subs[r] }

func (j *Job) cleanup() {
	for _, mo := range j.mapOutputs {
		if mo != nil {
			mo.discard()
		}
	}
}
