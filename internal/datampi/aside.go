package datampi

import (
	"fmt"

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

	// cache is the memory cache: received blocks as they arrived, in one
	// pooled arena plus an index that each spill sorts and then empties.
	cache     *kvio.Run
	peakCache int64
	spills    []*kvio.Run // sorted copies of the cache, in spill order

	groups  *kvio.Grouper // over the merge of the cache and every spill run
	metrics *trace.Task
}

func newAContext(j *Job, rank int) *AContext {
	return &AContext{job: j, rank: rank, cache: kvio.GetRun(), metrics: j.aTasks[rank]}
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
// its done control message. Data messages are appended to the memory
// cache as they stand; when the cache exceeds the budget a sorted run is
// spilled, mirroring DataMPI's threshold-triggered merging threads.
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
			pairs, err := a.cache.AppendBlock(data)
			if err != nil {
				return err
			}
			a.metrics.ShuffleInBytes += int64(len(data))
			a.metrics.ShuffleInPairs += int64(pairs)
			a.metrics.RecvRounds++
			a.job.histRecvRound.Observe(int64(len(data)))
			cacheBytes := int64(a.cache.Size())
			a.peakCache = max(a.peakCache, cacheBytes)
			if cacheBytes > a.memBudget() {
				a.spill()
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

// spill sorts the cache and copies it, in index order, into a spill run
// reserved to the cache's size, then empties the cache. The spill is
// charged as disk by the model (SpillCount, SpillBytes); the run itself
// stays in memory.
func (a *AContext) spill() {
	c := a.cache
	if c.Len() == 0 {
		return
	}
	c.SortByKeyValue()
	run := kvio.GetRun()
	run.Reserve(c.Size())
	for _, e := range c.Entries() {
		p := c.Wire(e)
		run.AppendWire(p)
		a.job.histRunWrite.Observe(int64(len(p)))
	}
	a.spills = append(a.spills, run)
	a.metrics.SpillCount++
	a.metrics.SpillBytes += int64(run.Size())
	a.job.ctrSpillPairs.Add(int64(c.Len()))
	c.Reset()
}

// prepareIterator sorts the residual cache and builds the k-way merge
// over the in-memory cache first, then every spill run in spill order.
func (a *AContext) prepareIterator() error {
	c := a.cache
	c.SortByKeyValue()
	a.metrics.SortedBytes = int64(c.Size()) + a.metrics.SpillBytes
	sources := make([]kvio.Source, 0, len(a.spills)+1)
	if c.Len() > 0 {
		sources = append(sources, c.Source())
	}
	for _, run := range a.spills {
		sources = append(sources, &kvio.WireSource{Buf: run.Bytes()})
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

// cleanup returns the spill runs and the cache to the pool. Every pair
// the body was handed is dead by now.
func (a *AContext) cleanup() {
	for _, run := range a.spills {
		run.Release()
	}
	a.spills = nil
	a.groups = nil
	a.cache.Release()
	a.cache = nil
}
