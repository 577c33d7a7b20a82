package datampi

import (
	"errors"
	"fmt"
	"sync"

	"hivempi/internal/kvio"
	"hivempi/internal/mpi"
	"hivempi/internal/trace"
)

// OContext is the handle given to an operator (O) task body. Send is
// the MPI_D_Send analogue: pairs are routed by the partitioner into the
// Send Partition List and flushed through the configured shuffle engine
// when a partition fills.
type OContext struct {
	job  *Job
	rank int

	// Send Partition List: one block per A task (paper Fig. 7). Pairs
	// are kept wire-encoded (kvio framing) so Send never clones keys or
	// values — one append per pair into a pooled block.
	partitions []partitionBuffer

	// Non-blocking engine state.
	sendQueue chan flushItem
	senderErr chan error
	pending   []*mpi.Request

	metrics   *trace.Task
	pairIndex int64
	flushMark []int64 // pairIndex at each flush, for timeline reconstruction
	finalized bool
	err       error

	// bufOccupancy tracks the live Send Partition List footprint (bytes
	// buffered across all partitions); its peak lands in the task trace
	// as BufPeakBytes.
	bufOccupancy int64
}

type partitionBuffer struct {
	blk   *block // nil until the task first sends to this partition
	pairs int
}

type flushItem struct {
	dest  int // A communicator rank
	blk   *block
	pairs int64 // post-combiner records, for comm-matrix attribution
}

// block is one Send Partition List buffer. Blocks are full-size
// (SendBufferBytes plus slack) however little a task puts in them, so
// they are shared by every task of every job in the process (the
// paper's §IV-C buffer manager): a short O task touching many
// partitions takes warm blocks instead of allocating its own. A block
// goes back once the transport has copied it (mpi.Send and Isend copy
// their payload) and finalize returns whatever the task still holds.
type block struct{ data []byte }

var blockPool sync.Pool

// getBlock returns an empty block with full send-buffer capacity.
func (o *OContext) getBlock() *block {
	// Slack beyond the flush threshold so the pair that trips the
	// threshold rarely forces a reallocation.
	need := o.job.cfg.SendBufferBytes + 512
	if b, _ := blockPool.Get().(*block); b != nil && cap(b.data) >= need {
		b.data = b.data[:0]
		return b
	}
	// Nothing pooled, or a block from a job with smaller buffers (left
	// to the collector).
	return &block{data: make([]byte, 0, need)}
}

func newOContext(j *Job, rank int) *OContext {
	ctx := &OContext{
		job:        j,
		rank:       rank,
		partitions: make([]partitionBuffer, j.cfg.NumA),
		metrics:    j.oTasks[rank],
	}
	if j.cfg.NonBlocking {
		// The bounded queue is the hive.datampi.sendqueue knob: the
		// compute thread blocks when the communication goroutine falls
		// behind by more than SendQueueSize partitions.
		ctx.sendQueue = make(chan flushItem, j.cfg.SendQueueSize)
		ctx.senderErr = make(chan error, 1)
		go ctx.senderLoop()
	}
	if ctx.metrics.PartitionBytes == nil {
		ctx.metrics.PartitionBytes = make([]int64, j.cfg.NumA)
	}
	return ctx
}

// Rank returns this task's rank within COMM_BIPARTITE_O.
func (o *OContext) Rank() int { return o.rank }

// Size returns the size of COMM_BIPARTITE_O (MPI_D_Comm_size).
func (o *OContext) Size() int { return o.job.cfg.NumO }

// NumA returns the size of COMM_BIPARTITE_A.
func (o *OContext) NumA() int { return o.job.cfg.NumA }

// Metrics exposes the task's trace record so the engine layer can add
// input-side counters.
func (o *OContext) Metrics() *trace.Task { return o.metrics }

// Send routes one key-value pair toward its aggregator (MPI_D_Send).
func (o *OContext) Send(key, value []byte) error {
	if o.finalized {
		return errors.New("datampi: Send after finalize")
	}
	if o.err != nil {
		return o.err
	}
	part := o.job.cfg.Partitioner(key, o.job.cfg.NumA)
	if part < 0 || part >= o.job.cfg.NumA {
		return fmt.Errorf("datampi: partitioner returned %d for %d A tasks", part, o.job.cfg.NumA)
	}
	pb := &o.partitions[part]
	sz := kvio.KV{Key: key, Value: value}.WireSize()
	o.metrics.CollectSizes.Observe(len(key) + len(value))
	o.metrics.ShuffleOutPairs++
	o.metrics.PartitionBytes[part] += int64(sz)
	o.pairIndex++

	if pb.blk == nil {
		pb.blk = o.getBlock()
	}
	pb.blk.data = kvio.AppendKV(pb.blk.data, key, value)
	pb.pairs++
	o.bufOccupancy += int64(sz)
	if o.bufOccupancy > o.metrics.BufPeakBytes {
		o.metrics.BufPeakBytes = o.bufOccupancy
	}
	if len(pb.blk.data) >= o.job.cfg.SendBufferBytes {
		return o.flushPartition(part, false)
	}
	return nil
}

// flushPartition pushes one full partition into the shuffle engine.
// force permits the residual flushes finalize issues after the Send
// path has been closed.
func (o *OContext) flushPartition(part int, force bool) error {
	if o.finalized && !force {
		return errors.New("datampi: flush after finalize")
	}
	pb := &o.partitions[part]
	blk := pb.blk
	pairs := int64(pb.pairs)
	pb.blk = nil
	pb.pairs = 0
	// Whichever block is current when this returns has been copied by
	// the transport or is not going anywhere; the non-blocking sender
	// takes ownership of the one it is handed (blk = nil).
	defer func() {
		if blk != nil {
			blockPool.Put(blk)
		}
	}()
	o.bufOccupancy -= int64(len(blk.data))
	if o.job.cfg.Combiner != nil {
		combineBase := o.metrics.CombineOutPairs
		combined, err := o.runCombiner(blk.data)
		if err != nil {
			return fmt.Errorf("datampi: partition %d buffer corrupt: %w", part, err)
		}
		pairs = o.metrics.CombineOutPairs - combineBase
		blockPool.Put(blk)
		blk = combined
		if len(blk.data) == 0 {
			return nil
		}
	}
	o.metrics.ShuffleOutBytes += int64(len(blk.data))
	o.job.ctrFlushes.Inc()
	if force {
		// Residual flush finalize forced out (the buffer never reached
		// the SendBufferBytes threshold).
		o.metrics.ForcedFlushes++
		o.job.ctrForced.Inc()
	}
	o.flushMark = append(o.flushMark, o.pairIndex)
	o.metrics.SendEvents = append(o.metrics.SendEvents, trace.SendEvent{
		Bytes: int64(len(blk.data)),
		Dest:  part,
	})

	if o.job.cfg.NonBlocking {
		select {
		case err := <-o.senderErr:
			o.err = err
			return err
		case o.sendQueue <- flushItem{dest: part, blk: blk, pairs: pairs}:
			// The sender goroutine returns the block after Isend.
			blk = nil
			return nil
		}
	}
	err := o.blockingFlush(part, blk.data)
	if err == nil {
		o.job.comm.AddRecords(o.rank, part, pairs)
	}
	return err
}

// blockingFlush implements the blocking shuffle style: the compute
// thread itself performs the transfer inside a serialized all-to-all
// round and waits for the receiver's acknowledgement, so skewed tasks
// stall each other (paper Fig. 6).
func (o *OContext) blockingFlush(part int, data []byte) error {
	o.job.roundMu.Lock()
	defer o.job.roundMu.Unlock()
	o.metrics.WaitRounds++
	o.job.ctrRounds.Inc()
	dst := o.job.commA.WorldRank(part)
	if err := o.job.world.Send(o.rank, dst, tagData, data); err != nil {
		return fmt.Errorf("datampi: blocking send to A%d: %w", part, err)
	}
	// MPI_Waitall analogue: wait until the receiver absorbed the round.
	if _, _, err := o.job.world.Recv(o.rank, dst, tagAck); err != nil {
		return fmt.Errorf("datampi: ack from A%d: %w", part, err)
	}
	return nil
}

// senderLoop is the non-blocking shuffle engine thread: it drains the
// send queue, posts MPI_Isend for each partition and tests cached
// request handles for completion.
func (o *OContext) senderLoop() {
	for item := range o.sendQueue {
		dst := o.job.commA.WorldRank(item.dest)
		req, err := o.job.world.Isend(o.rank, dst, tagData, item.blk.data)
		// Isend copies the payload, so the block goes back immediately.
		blockPool.Put(item.blk)
		if err != nil {
			select {
			case o.senderErr <- fmt.Errorf("datampi: isend to A%d: %w", item.dest, err):
			default:
			}
			continue
		}
		o.job.comm.AddRecords(o.rank, item.dest, item.pairs)
		o.pending = append(o.pending, req)
		// Opportunistically retire completed handles.
		live := o.pending[:0]
		for _, r := range o.pending {
			if done, _ := r.Test(); !done {
				live = append(live, r)
			}
		}
		o.pending = live
	}
	if err := mpi.Waitall(o.pending); err != nil {
		select {
		case o.senderErr <- err:
		default:
		}
	}
	select {
	case o.senderErr <- nil:
	default:
	}
}

// runCombiner sorts the partition's pairs by key in a pooled run, the
// pairs of one key keeping their Send order, and applies the user
// combiner to each key's values, returning the encoded output in a
// pooled block. Wire order is correctness-neutral: the A side sorts
// before grouping.
func (o *OContext) runCombiner(data []byte) (*block, error) {
	run := kvio.GetRun()
	defer run.Release()
	n, err := run.AppendBlock(data)
	if err != nil {
		return nil, err
	}
	o.metrics.CombineInPairs += int64(n)
	run.Sort(run.ByPartKey)
	out := o.getBlock()
	err = run.Groups(run.Entries(), func(key []byte, vals [][]byte) error {
		for _, v := range o.job.cfg.Combiner(key, vals) {
			out.data = kvio.AppendKV(out.data, key, v)
			o.metrics.CombineOutPairs++
		}
		return nil
	})
	return out, err
}

// finalize flushes residual partitions, drains the shuffle engine and
// broadcasts the done control message to every A task (MPI_D_Finalize).
func (o *OContext) finalize() error {
	if o.finalized {
		return nil
	}
	o.finalized = true
	var errs []error
	for part := range o.partitions {
		if o.partitions[part].blk != nil {
			if err := o.flushPartition(part, true); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if o.job.cfg.NonBlocking {
		close(o.sendQueue)
		if err := <-o.senderErr; err != nil {
			errs = append(errs, err)
		}
	}
	// Timeline reconstruction: convert flush marks to progress fractions.
	total := o.pairIndex
	for i := range o.metrics.SendEvents {
		if total > 0 && i < len(o.flushMark) {
			o.metrics.SendEvents[i].Progress = float64(o.flushMark[i]) / float64(total)
		} else {
			o.metrics.SendEvents[i].Progress = 1
		}
	}
	for a := 0; a < o.job.cfg.NumA; a++ {
		dst := o.job.commA.WorldRank(a)
		if err := o.job.world.Send(o.rank, dst, tagDone, nil); err != nil {
			errs = append(errs, fmt.Errorf("datampi: done to A%d: %w", a, err))
		}
	}
	return errors.Join(errs...)
}
