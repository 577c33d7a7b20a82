package datampi

import (
	"errors"
	"fmt"
	"io"
	"os"

	"hivempi/internal/kvio"
	"hivempi/internal/mpi"
	"hivempi/internal/trace"
)

// AContext is the handle given to an aggregator (A) task body. Before
// the body runs, the receive loop has already drained every O task
// (caching in memory, spilling sorted runs past the memory budget) and
// the merged, key-grouped iterator is ready (MPI_D_Recv analogue).
type AContext struct {
	job  *Job
	rank int

	cache      []kvio.KV
	kvScratch  []kvio.KV // receiveAll decode scratch, reused across rounds
	cacheBytes int64
	peakCache  int64
	spills     []*os.File

	groups  *kvio.Grouper // over the merge of the cache and every spill run
	metrics *trace.Task
}

func newAContext(j *Job, rank int) (*AContext, error) {
	return &AContext{job: j, rank: rank, metrics: j.aTasks[rank]}, nil
}

// Rank returns this task's rank within COMM_BIPARTITE_A.
func (a *AContext) Rank() int { return a.rank }

// Size returns the size of COMM_BIPARTITE_A (MPI_D_Comm_size).
func (a *AContext) Size() int { return a.job.cfg.NumA }

// NumO returns the size of COMM_BIPARTITE_O.
func (a *AContext) NumO() int { return a.job.cfg.NumO }

// Metrics exposes the task's trace record for engine-side counters.
func (a *AContext) Metrics() *trace.Task { return a.metrics }

// memBudget is the cache ceiling from hive.datampi.memusedpercent.
func (a *AContext) memBudget() int64 {
	return int64(a.job.cfg.MemUsedPercent * float64(a.job.cfg.TaskMemoryBytes))
}

// receiveAll runs this task's receive loop until every O task has sent
// its done control message. Data messages are decoded into the memory
// cache; when the cache exceeds the budget a sorted run is spilled to
// local disk, mirroring DataMPI's threshold-triggered merging threads.
func (a *AContext) receiveAll() error {
	me := a.job.commA.WorldRank(a.rank)
	doneCount := 0
	for doneCount < a.job.cfg.NumO {
		data, st, err := a.job.world.Recv(me, mpi.AnySource, mpi.AnyTag)
		if err != nil {
			return err
		}
		switch st.Tag {
		case tagDone:
			doneCount++
		case tagData:
			// Pairs are copied into a.cache below, so one scratch []KV
			// backing array serves every receive round.
			kvs, err := kvio.DecodeAllInto(a.kvScratch[:0], data)
			if err != nil {
				return err
			}
			a.kvScratch = kvs[:0]
			a.metrics.ShuffleInBytes += int64(len(data))
			a.metrics.ShuffleInPairs += int64(len(kvs))
			a.metrics.RecvRounds++
			a.job.histRecvRound.Observe(int64(len(data)))
			a.cache = append(a.cache, kvs...)
			a.cacheBytes += int64(len(data))
			if a.cacheBytes > a.peakCache {
				a.peakCache = a.cacheBytes
			}
			if a.cacheBytes > a.memBudget() {
				if err := a.spill(); err != nil {
					return err
				}
			}
			if !a.job.cfg.NonBlocking {
				// Blocking style: acknowledge so the sender's Waitall
				// round completes.
				if err := a.job.world.Send(me, st.Source, tagAck, nil); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("datampi: A%d received unknown tag %d", a.rank, st.Tag)
		}
	}
	a.metrics.MemoryCacheBytes = a.peakCache
	return nil
}

// spill sorts the cache and writes it to a local-disk run file.
func (a *AContext) spill() error {
	if len(a.cache) == 0 {
		return nil
	}
	kvio.Sort(a.cache)
	f, err := os.CreateTemp(a.job.cfg.SpillDir, "datampi-spill-*.run")
	if err != nil {
		return fmt.Errorf("datampi: create spill: %w", err)
	}
	kw := kvio.NewWriter(f)
	kw.SetSizeHistogram(a.job.histRunWrite)
	for _, p := range a.cache {
		if err := kw.Write(p); err != nil {
			f.Close()
			return fmt.Errorf("datampi: write spill: %w", err)
		}
	}
	if err := kw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("datampi: flush spill: %w", err)
	}
	a.metrics.SpillCount++
	a.metrics.SpillBytes += kw.BytesWritten()
	a.job.ctrSpillPairs.Add(kw.Pairs())
	a.spills = append(a.spills, f)
	a.cache = nil
	a.cacheBytes = 0
	return nil
}

// prepareIterator sorts the residual cache and builds the k-way merge
// over the in-memory run plus every spill run.
func (a *AContext) prepareIterator() error {
	kvio.Sort(a.cache)
	a.metrics.SortedBytes = a.cacheBytes + a.metrics.SpillBytes
	sources := make([]kvio.Source, 0, len(a.spills)+1)
	if len(a.cache) > 0 {
		sources = append(sources, &kvio.SliceSource{KVs: a.cache})
	}
	for _, f := range a.spills {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("datampi: rewind spill: %w", err)
		}
		sources = append(sources, kvio.NewReader(f))
	}
	a.metrics.MergeRuns = int64(len(sources))
	m, err := kvio.NewMerge(sources)
	if err != nil {
		return err
	}
	a.groups = kvio.NewGrouper(m)
	return nil
}

// NextGroup returns the next key and every value for it, in key order.
// It returns io.EOF after the last group. The key and the values slice
// are valid until the next call.
func (a *AContext) NextGroup() ([]byte, [][]byte, error) {
	k, vs, err := a.groups.NextGroup()
	if err == nil {
		a.metrics.ReduceGroups++
	}
	return k, vs, err
}

// cleanup removes spill runs.
func (a *AContext) cleanup() {
	var errs []error
	for _, f := range a.spills {
		name := f.Name()
		if err := f.Close(); err != nil {
			errs = append(errs, err)
		}
		if err := os.Remove(name); err != nil {
			errs = append(errs, err)
		}
	}
	a.spills = nil
	// Cleanup failures only leak temp files; don't fail the job.
	_ = errors.Join(errs...)
}
