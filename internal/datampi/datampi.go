// Package datampi reimplements the DataMPI communication library the
// paper layers under Hive: a bipartite communication model where tasks
// in communicator O (operators, the map side) move key-value pairs to
// tasks in communicator A (aggregators, the reduce side) through
// MPI-style point-to-point messages.
//
// The library provides:
//   - MPI_D-style job lifecycle (Init/Finalize implied by Run),
//     COMM_BIPARTITE_O and COMM_BIPARTITE_A communicators;
//   - key-value Send on the O side with a buffer manager organised as
//     Send Partition Lists (one partition buffer per A task);
//   - blocking and non-blocking shuffle engines (paper §IV-C): the
//     blocking style synchronises every flush in serialized
//     relaxed-all-to-all rounds with receiver acknowledgements, the
//     non-blocking style streams partitions through a bounded send
//     queue drained by a dedicated communication goroutine;
//   - A-side receiver threads that cache intermediate data in memory up
//     to a configurable fraction of the task heap and spill sorted runs
//     to local disk beyond it, then merge-sort all runs into the grouped
//     iterator handed to the aggregator body.
package datampi

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"hivempi/internal/chaos"
	"hivempi/internal/metrics"
	"hivempi/internal/mpi"
	"hivempi/internal/trace"
)

// Message tags used on the wire.
const (
	tagData = 1 // partition buffer payload
	tagDone = 2 // O task finished
	tagAck  = 3 // A -> O acknowledgement (blocking style)
)

// Defaults mirroring the paper's tuned configuration (§IV-D, §V-A).
const (
	DefaultSendBufferBytes = 32 << 10
	DefaultSendQueueSize   = 6
	DefaultMemUsedPercent  = 0.4
	DefaultTaskMemoryBytes = 64 << 20
)

// Partitioner routes a key to one of numA aggregator tasks.
type Partitioner func(key []byte, numA int) int

// HashPartitioner is the default FNV-based partitioner.
func HashPartitioner(key []byte, numA int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(numA))
}

// Combiner optionally folds the values of one key before transmission.
type Combiner func(key []byte, values [][]byte) [][]byte

// Config describes one DataMPI job.
type Config struct {
	NumO int
	NumA int

	Partitioner     Partitioner
	Combiner        Combiner
	SendBufferBytes int     // per-partition buffer before a flush
	SendQueueSize   int     // hive.datampi.sendqueue
	MemUsedPercent  float64 // hive.datampi.memusedpercent
	TaskMemoryBytes int64
	NonBlocking     bool   // shuffle engine style (paper Fig. 6/7)
	SpillDir        string // local disk for A-side spill runs

	// Hosts optionally assigns each world rank to a simulated node for
	// locality accounting; len must be NumO+NumA when set.
	Hosts []string

	// Chaos optionally attaches a fault-injection plane to the job's
	// MPI world (message drop/delay/corruption faults).
	Chaos *chaos.Plane

	// Metrics optionally attaches the observability registry; the job
	// counts send-queue flushes, blocking all-to-all rounds and spilled
	// pairs live (nil = no counting).
	Metrics *metrics.Registry
}

func (c *Config) fill() error {
	if c.NumO <= 0 || c.NumA <= 0 {
		return fmt.Errorf("datampi: NumO=%d NumA=%d must be positive", c.NumO, c.NumA)
	}
	if c.Partitioner == nil {
		c.Partitioner = HashPartitioner
	}
	if c.SendBufferBytes <= 0 {
		c.SendBufferBytes = DefaultSendBufferBytes
	}
	if c.SendQueueSize <= 0 {
		c.SendQueueSize = DefaultSendQueueSize
	}
	if c.MemUsedPercent <= 0 {
		c.MemUsedPercent = DefaultMemUsedPercent
	}
	if c.MemUsedPercent > 1 {
		c.MemUsedPercent = 1
	}
	if c.TaskMemoryBytes <= 0 {
		c.TaskMemoryBytes = DefaultTaskMemoryBytes
	}
	if c.SpillDir == "" {
		c.SpillDir = os.TempDir()
	}
	if c.Hosts != nil && len(c.Hosts) != c.NumO+c.NumA {
		return fmt.Errorf("datampi: Hosts has %d entries, want %d", len(c.Hosts), c.NumO+c.NumA)
	}
	return nil
}

// OBody is the operator task body (the map side).
type OBody func(*OContext) error

// ABody is the aggregator task body (the reduce side).
type ABody func(*AContext) error

// Job is one bipartite DataMPI execution.
type Job struct {
	cfg   Config
	world *mpi.World
	commO *mpi.Comm
	commA *mpi.Comm

	roundMu sync.Mutex // serialized all-to-all rounds (blocking style)

	oTasks []*trace.Task
	aTasks []*trace.Task

	// comm is the stage's communication matrix, fed by the MPI send
	// observer (bytes/messages per delivered data message) and the
	// flush sites (record counts).
	comm *trace.CommMatrix

	// Live observability counters, resolved once at job construction so
	// the Send/flush hot paths pay one atomic add each (nil registry
	// yields nil counters, whose methods are no-ops).
	ctrFlushes    *metrics.Counter
	ctrRounds     *metrics.Counter
	ctrSpillPairs *metrics.Counter
	ctrForced     *metrics.Counter
	ctrCtrlMsgs   *metrics.Counter
	histRecvRound *metrics.Histogram
	histRunWrite  *metrics.Histogram
}

// NewJob validates the configuration and builds the bipartite world:
// world ranks [0,NumO) form COMM_BIPARTITE_O, [NumO,NumO+NumA) form
// COMM_BIPARTITE_A.
func NewJob(cfg Config) (*Job, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	world, err := mpi.NewWorld(cfg.NumO + cfg.NumA)
	if err != nil {
		return nil, err
	}
	world.SetChaos(cfg.Chaos)
	oranks := make([]int, cfg.NumO)
	for i := range oranks {
		oranks[i] = i
	}
	aranks := make([]int, cfg.NumA)
	for i := range aranks {
		aranks[i] = cfg.NumO + i
	}
	commO, err := world.NewComm(oranks)
	if err != nil {
		return nil, err
	}
	commA, err := world.NewComm(aranks)
	if err != nil {
		return nil, err
	}
	j := &Job{cfg: cfg, world: world, commO: commO, commA: commA}
	j.ctrFlushes = cfg.Metrics.Counter(metrics.CtrMPISendFlushes)
	j.ctrRounds = cfg.Metrics.Counter(metrics.CtrMPIBlockingRounds)
	j.ctrSpillPairs = cfg.Metrics.Counter(metrics.CtrMPISpillPairs)
	j.ctrForced = cfg.Metrics.Counter(metrics.CtrMPIForcedFlushes)
	j.ctrCtrlMsgs = cfg.Metrics.Counter(metrics.CtrMPICtrlMessages)
	j.histRecvRound = cfg.Metrics.Histogram(metrics.HistRecvRoundBytes)
	j.histRunWrite = cfg.Metrics.Histogram(metrics.HistRunWriteBytes)
	j.comm = trace.NewCommMatrix(cfg.NumO, cfg.NumA)
	world.SetSendObserver(func(src, dst, tag int, bytes int) {
		if tag == tagData && src < cfg.NumO && dst >= cfg.NumO {
			j.comm.AddMessage(src, dst-cfg.NumO, int64(bytes))
			return
		}
		j.ctrCtrlMsgs.Inc()
	})
	j.oTasks = make([]*trace.Task, cfg.NumO)
	j.aTasks = make([]*trace.Task, cfg.NumA)
	for i := range j.oTasks {
		j.oTasks[i] = &trace.Task{ID: i, Kind: trace.KindOTask,
			Host: j.host(i), CollectSizes: trace.NewSizeHistogram()}
	}
	for i := range j.aTasks {
		j.aTasks[i] = &trace.Task{ID: i, Kind: trace.KindATask, Host: j.host(cfg.NumO + i)}
	}
	return j, nil
}

func (j *Job) host(worldRank int) string {
	if j.cfg.Hosts == nil {
		return ""
	}
	return j.cfg.Hosts[worldRank]
}

// OMetrics returns the trace records of the O tasks (valid after Run).
func (j *Job) OMetrics() []*trace.Task { return j.oTasks }

// AMetrics returns the trace records of the A tasks (valid after Run).
func (j *Job) AMetrics() []*trace.Task { return j.aTasks }

// Comm returns the job's communication matrix (valid after Run): bytes
// on the wire per (O-rank, A-rank) pair, post-combiner, so row sums
// reconcile with the O tasks' ShuffleOutBytes and column sums with the
// A tasks' ShuffleInBytes.
func (j *Job) Comm() *trace.CommMatrix { return j.comm }

// Run executes the bipartite job: NumO operator goroutines and NumA
// aggregator goroutines are spawned (the mpidrun-spawned CommonProcess
// instances of the paper). A-side receive loops run concurrently with
// the O phase so intermediate data is cached/merged while operators are
// still producing; aggregator bodies start once every O task finalized.
func (j *Job) Run(oBody OBody, aBody ABody) error {
	defer j.world.Finalize()

	errs := make([]error, j.cfg.NumO+j.cfg.NumA)
	var wg sync.WaitGroup

	// A tasks first so their receive loops are live before O sends.
	for i := 0; i < j.cfg.NumA; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[j.cfg.NumO+i] = j.runATask(i, aBody)
		}(i)
	}
	for i := 0; i < j.cfg.NumO; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = j.runOTask(i, oBody)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (j *Job) runOTask(rank int, body OBody) error {
	ctx := newOContext(j, rank)
	if err := body(ctx); err != nil {
		// Still finalize so A tasks terminate, then surface the error.
		ferr := ctx.finalize()
		if ferr != nil {
			return errors.Join(err, ferr)
		}
		return err
	}
	return ctx.finalize()
}

func (j *Job) runATask(rank int, body ABody) error {
	ctx := newAContext(j, rank)
	defer ctx.cleanup()
	if err := ctx.receiveAll(); err != nil {
		return fmt.Errorf("a task %d receive: %w", rank, err)
	}
	if err := ctx.prepareIterator(); err != nil {
		return fmt.Errorf("a task %d merge: %w", rank, err)
	}
	if body == nil {
		return nil
	}
	return body(ctx)
}
