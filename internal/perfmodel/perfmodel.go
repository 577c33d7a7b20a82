// Package perfmodel replays execution traces onto a simulated cluster
// to produce the paper's timing results. Queries execute for real at
// reduced scale (the data plane is exact); this model supplies the
// control-plane and hardware timing of the paper's testbed — 1 master +
// 7 slaves, 4 slots per node, Gigabit Ethernet, one SATA disk per node
// (§V-A) — by charging startup, CPU, disk and network costs to the
// per-task byte/record counts recorded in the trace, scaled back up by
// the data-scale factor.
//
// The engine differences the paper measures are reproduced
// structurally, not by fiat: Hadoop map tasks pay sort/spill/merge disk
// I/O and its reducers may only copy map output after the producing map
// completes, while DataMPI pushes partitions during the O phase
// (overlapping all but the tail), keeps intermediate data in memory up
// to the cache budget, pays GC pressure when the cache crowds the
// application heap, and in blocking mode serializes every flush into a
// synchronized round.
package perfmodel

import (
	"sort"

	"hivempi/internal/trace"
)

// Cluster describes the simulated hardware.
type Cluster struct {
	Nodes        int // worker nodes
	SlotsPerNode int

	DiskReadBW  float64 // bytes/sec per node
	DiskWriteBW float64
	NetBW       float64 // bytes/sec per NIC
	MemBW       float64 // bytes/sec for memory-tier intermediate reads/writes

	CPUPerRecord float64 // seconds per row through a Hive operator chain
	CPUPerByte   float64 // seconds per byte of serde work
}

// EngineParams carries the per-engine control-plane constants.
type EngineParams struct {
	JobStartup   float64 // submit -> first task launched (seconds)
	TaskLaunch   float64 // per-task process/JVM start
	CPUFactor    float64 // framework overhead multiplier on compute
	BlockingSync float64 // per-flush latency in a synchronized round
	QueueStall   float64 // per-flush stall unit for small send queues
	GCFactor     float64 // compute multiplier ramp above the GC knee
	GCKnee       float64 // memusedpercent where GC pressure starts
	RetryBackoff float64 // per-attempt scheduler backoff for task re-runs
}

// sendBufferBytes is DataMPI's partition buffer granularity; the flush
// count at full scale is shuffled bytes divided by this.
const sendBufferBytes = 32 << 10

// Params is the complete model configuration.
type Params struct {
	Cluster Cluster
	ScaleUp float64 // multiply trace bytes/records (1:1000 runs use 1000)
	Hadoop  EngineParams
	DataMPI EngineParams
	Compile float64 // per-query HiveQL compile seconds
	// VectorizedCPUFactor, when set, scales per-record map CPU: it
	// models a Hive whose map operators run on column batches (kernel
	// loops amortize per-row dispatch). The zero value models the
	// paper's row-mode Hive 0.13 — no scaling — whatever the executor
	// underneath does: what we execute is not what we model.
	VectorizedCPUFactor float64
}

// MeasuredVectorizedCPUFactor is the batch-kernel win on per-record
// operator CPU measured by the microbenchmarks in BENCH_vec.json; the
// `-exp vec` ablation simulates one trace with and without it.
const MeasuredVectorizedCPUFactor = 0.45

// DefaultParams is calibrated against the paper's §V numbers (TPC-H Q9
// 40 GB: 802 s Hadoop vs 598 s DataMPI; HiBench ~30% average gain;
// startup ~5% of job time and ~30% shorter on DataMPI).
func DefaultParams() Params {
	return Params{
		Cluster: Cluster{
			Nodes:        7,
			SlotsPerNode: 4,
			DiskReadBW:   90e6,
			DiskWriteBW:  70e6,
			NetBW:        110e6,
			MemBW:        2.5e9, // DDR3-era sequential copy bandwidth
			CPUPerRecord: 6e-6,
			CPUPerByte:   28e-9,
		},
		ScaleUp: 1000,
		Hadoop: EngineParams{
			JobStartup:   4.5,
			TaskLaunch:   1.6,
			CPUFactor:    1.18, // JVM MapReduce pipeline overhead per row
			RetryBackoff: 1.0,  // scheduler redeploys a failed map quickly
		},
		DataMPI: EngineParams{
			JobStartup:   3.0,
			TaskLaunch:   0.5,
			CPUFactor:    1.0,
			BlockingSync: 0.0008, // GigE round-trip per synchronized flush
			QueueStall:   0.0002,
			GCFactor:     3.0,
			GCKnee:       0.45,
			RetryBackoff: 2.0, // a stage relaunch re-spawns the MPI world
		},
		Compile: 1.2,
	}
}

func (p *Params) engine(name string) EngineParams {
	if name == "datampi" {
		return p.DataMPI
	}
	return p.Hadoop
}

// RereplicationSeconds prices copying n bytes of lost replicas onto
// fresh nodes: each block streams disk -> network -> disk, so the
// pipeline runs at the slowest of the three channels. The driver feeds
// this to dfs.SetRepairCharge so recovery cost lands in the same
// virtual-time currency as the stage timings.
func (p *Params) RereplicationSeconds(n int64) float64 {
	c := p.Cluster
	bw := c.DiskReadBW
	if c.NetBW < bw {
		bw = c.NetBW
	}
	if c.DiskWriteBW < bw {
		bw = c.DiskWriteBW
	}
	if bw <= 0 || n <= 0 {
		return 0
	}
	return float64(n) / bw
}

// AdaptPlanSeconds prices one skew-adaptive replan: reading the
// producer's partition histogram (baseParts entries) and emitting the
// rewritten target map (numTargets entries) is master-side work, a
// fixed decision overhead plus a per-entry scan cost. The adapt
// runtime stamps this on the adaptation it hands the engine, and
// SimulateStage charges it on the stage's critical path.
func (p *Params) AdaptPlanSeconds(baseParts, numTargets int) float64 {
	if baseParts <= 0 {
		return 0
	}
	return 0.05 + 0.002*float64(baseParts+numTargets)
}

// TaskSpan is one scheduled task on the simulated cluster.
type TaskSpan struct {
	ID    int
	Kind  trace.TaskKind
	Start float64
	End   float64
	Slot  int

	// Segment boundaries within [Start,End] for utilization sampling:
	// launch | read | compute(+send) | write.
	ReadEnd    float64
	ComputeEnd float64

	ReadBytes  float64 // scaled
	WriteBytes float64
	NetBytes   float64
	CacheBytes float64
}

// StageTiming is one simulated stage.
type StageTiming struct {
	Name   string
	Engine string

	Startup    float64 // job startup (submit -> first task)
	MapShuffle float64 // paper's MS: map phase + copy (Hadoop) / O phase (DataMPI)
	Others     float64 // merge + reduce + write
	Total      float64
	// StartAt is the stage's launch offset within its query: the serial
	// cumulative offset, or the max of its dependencies' finish times
	// when the query ran DAG-overlapped.
	StartAt float64

	MapStart   float64 // absolute time the first map/O task launches
	MapEnd     float64
	ShuffleEnd float64

	Producers []TaskSpan
	Consumers []TaskSpan
}

// slotSchedule list-schedules durations onto n slots, with tasks
// becoming available at readyAt. Returns spans in task order.
type slotSchedule struct {
	free []float64
}

func newSlots(n int) *slotSchedule {
	if n < 1 {
		n = 1
	}
	return &slotSchedule{free: make([]float64, n)}
}

func (s *slotSchedule) place(readyAt, duration float64) (start, end float64, slot int) {
	best := 0
	for i, f := range s.free {
		if f < s.free[best] {
			best = i
		}
	}
	start = s.free[best]
	if readyAt > start {
		start = readyAt
	}
	end = start + duration
	s.free[best] = end
	return start, end, best
}

func (s *slotSchedule) maxEnd() float64 {
	m := 0.0
	for _, f := range s.free {
		if f > m {
			m = f
		}
	}
	return m
}

// memTierBW returns the memory-tier bandwidth, falling back to a
// DDR3-class default for Params built before the tier existed.
func memTierBW(c Cluster) float64 {
	if c.MemBW > 0 {
		return c.MemBW
	}
	return 2.5e9
}

// mapTaskDuration models one producer task (excluding launch).
func (p *Params) mapTaskDuration(st *trace.Stage, t *trace.Task) (dur, readT, computeT, writeT, netBytes float64) {
	c := p.Cluster
	in := float64(t.InputBytes) * p.ScaleUp
	memIn := float64(t.MemReadBytes) * p.ScaleUp
	if memIn > in {
		memIn = in
	}
	diskIn := in - memIn
	recs := float64(t.InputRecords) * p.ScaleUp
	out := float64(t.ShuffleOutBytes) * p.ScaleUp
	readBW := c.DiskReadBW
	memBW := memTierBW(c)
	if !t.LocalRead {
		// A remote read still streams from the remote node's disk and
		// additionally crosses the network; charge the slower of the
		// two with a transfer penalty. A memory-tier read avoids the
		// remote disk but still pays the wire.
		readBW = c.DiskReadBW
		if c.NetBW < readBW {
			readBW = c.NetBW
		}
		readBW *= 0.7
		memBW = c.NetBW * 0.7
	}
	readT = diskIn/readBW + memIn/memBW
	perRecord := c.CPUPerRecord
	if p.VectorizedCPUFactor > 0 {
		perRecord *= p.VectorizedCPUFactor
	}
	computeT = recs*perRecord + in*c.CPUPerByte

	if st.Engine == "datampi" {
		e := p.DataMPI
		computeT *= e.CPUFactor
		sendT := out / c.NetBW
		flushes := out / sendBufferBytes
		if st.NonBlocking {
			// Send overlaps compute. A short send queue exposes part of
			// the transfer to the compute thread (Fig. 8b: the wait
			// shrinks with queue size and stabilizes at >= 6), plus a
			// small per-flush handoff cost.
			q := float64(st.SendQueueSize)
			if q < 1 {
				q = 1
			}
			overlap := q / 6
			if overlap > 1 {
				overlap = 1
			}
			exposed := (1 - overlap) * sendT
			stall := flushes * e.QueueStall / q
			body := computeT
			if sendT > body {
				body = sendT
			}
			body += exposed + stall
			dur = readT + body
			return dur, readT, body, 0, out
		}
		// Blocking style: the compute thread performs every transfer
		// inside serialized all-to-all rounds, so under skew a task
		// idles roughly as long as it computes while waiting for the
		// other participants (Fig. 6: O phase ~2x), plus a round-trip
		// per flush.
		dur = readT + 2*computeT + sendT + flushes*e.BlockingSync
		return dur, readT, 2*computeT + sendT, 0, out
	}

	// Hadoop map: every emitted pair passes the sort buffer (CPU), then
	// spill/merge/materialize on local disk.
	e := p.Hadoop
	computeT *= e.CPUFactor
	outPairs := float64(t.ShuffleOutPairs) * p.ScaleUp
	sortCPU := outPairs * c.CPUPerRecord * 0.6
	spill := float64(t.SpillBytes) * p.ScaleUp
	spillT := spill/c.DiskWriteBW + spill/c.DiskReadBW + out/c.DiskWriteBW
	dur = readT + computeT + sortCPU + spillT
	return dur, readT, computeT + sortCPU, spillT, out
}

// reduceTaskDuration models one consumer task (excluding launch).
func (p *Params) reduceTaskDuration(st *trace.Stage, t *trace.Task) (dur, mergeT, computeT, writeT float64) {
	c := p.Cluster
	in := float64(t.ShuffleInBytes) * p.ScaleUp
	pairs := float64(t.ShuffleInPairs) * p.ScaleUp
	outW := float64(t.WriteBytes) * p.ScaleUp
	memOut := float64(t.MemWriteBytes) * p.ScaleUp
	if memOut > outW {
		memOut = outW
	}

	// Reduce-side rows are pre-parsed binary pairs, cheaper per record
	// than the map-side operator chain over raw input.
	computeT = pairs * c.CPUPerRecord * 0.7
	// DFS write with pipeline replication ~1.5x effective cost; the
	// memory-tier share skips the disk pipeline entirely.
	writeT = (outW-memOut)*1.5/c.DiskWriteBW + memOut/memTierBW(c)

	if st.Engine == "datampi" {
		e := p.DataMPI
		computeT *= e.CPUFactor
		// Only spilled bytes touch disk, and most of the sort/merge ran
		// in the receive threads during the O phase; only the final
		// run merge is on the critical path.
		spilled := float64(t.SpillBytes) * p.ScaleUp
		mergeT = spilled/c.DiskWriteBW + spilled/c.DiskReadBW + in*c.CPUPerByte*0.3
		if st.MemUsedPercent > e.GCKnee {
			// Crowding the application heap raises GC time (Fig. 8a's
			// right side).
			over := st.MemUsedPercent - e.GCKnee
			computeT *= 1 + e.GCFactor*over*over*4
		}
		dur = mergeT + computeT + writeT
		return dur, mergeT, computeT, writeT
	}
	// Hadoop: shuffled segments land on disk, are merge-read back and
	// every pair passes the merge comparator.
	e := p.Hadoop
	computeT *= e.CPUFactor
	mergeT = in/c.DiskWriteBW + in/c.DiskReadBW + in*c.CPUPerByte +
		pairs*c.CPUPerRecord*0.25
	dur = mergeT + computeT + writeT
	return dur, mergeT, computeT, writeT
}

// faultCharge is the extra virtual time one task's recovery costs:
// each genuine re-execution pays roughly half the task body again
// (failures land mid-task on average) plus the scheduler's retry
// backoff; an injected straggler delay lands directly; a speculative
// duplicate pays one extra task launch. Checkpoint-replayed tasks skip
// the re-execution charge — their counters are restored from the
// checkpoint so the salvaged work prices exactly once, and the
// job-level relaunch is charged on the stage.
func faultCharge(e EngineParams, t *trace.Task, dur float64) float64 {
	var extra float64
	if t.Attempts > 1 && !t.Recovered {
		extra += float64(t.Attempts-1) * (0.5*dur + e.RetryBackoff)
	}
	extra += t.StragglerDelaySec
	if t.Speculative {
		extra += e.TaskLaunch
	}
	return extra
}

// SimulateStage produces the stage's simulated schedule.
func (p *Params) SimulateStage(st *trace.Stage) *StageTiming {
	e := p.engine(st.Engine)
	c := p.Cluster
	out := &StageTiming{Name: st.Name, Engine: st.Engine, Startup: e.JobStartup}

	mapSlots := newSlots(c.Nodes * c.SlotsPerNode)
	mapStart := e.JobStartup
	out.MapStart = mapStart

	var totalShuffle float64
	firstMapEnd, lastMapEnd := -1.0, 0.0
	for _, t := range st.Producers {
		dur, readT, computeT, writeT, netBytes := p.mapTaskDuration(st, t)
		dur += faultCharge(e, t, dur)
		start, end, slot := mapSlots.place(mapStart, e.TaskLaunch+dur)
		span := TaskSpan{
			ID: t.ID, Kind: t.Kind, Start: start, End: end, Slot: slot,
			ReadEnd:    start + e.TaskLaunch + readT,
			ComputeEnd: end - writeT,
			ReadBytes:  float64(t.InputBytes) * p.ScaleUp,
			WriteBytes: float64(t.SpillBytes+t.ShuffleOutBytes) * p.ScaleUp,
			NetBytes:   netBytes,
		}
		_ = computeT
		out.Producers = append(out.Producers, span)
		totalShuffle += netBytes
		if firstMapEnd < 0 || end < firstMapEnd {
			firstMapEnd = end
		}
		if end > lastMapEnd {
			lastMapEnd = end
		}
	}
	if firstMapEnd < 0 {
		firstMapEnd, lastMapEnd = mapStart, mapStart
	}
	out.MapEnd = lastMapEnd

	// Shuffle completion. The aggregate fabric moves roughly half the
	// bisection at once.
	aggBW := float64(c.Nodes) * c.NetBW / 2
	var shuffleEnd float64
	if st.Engine == "datampi" {
		// Push-based: transfers start with the O phase.
		shuffleEnd = mapStart + totalShuffle/aggBW
		if lastMapEnd > shuffleEnd {
			shuffleEnd = lastMapEnd
		}
	} else {
		// Pull-based: no byte moves before the first map finishes.
		shuffleEnd = firstMapEnd + totalShuffle/aggBW
		if lastMapEnd > shuffleEnd {
			shuffleEnd = lastMapEnd
		}
	}
	out.ShuffleEnd = shuffleEnd

	// Reduce phase.
	redSlots := newSlots(c.Nodes * c.SlotsPerNode)
	reduceEnd := shuffleEnd
	for _, t := range st.Consumers {
		dur, mergeT, computeT, writeT := p.reduceTaskDuration(st, t)
		dur += faultCharge(e, t, dur)
		_ = mergeT
		start, end, slot := redSlots.place(shuffleEnd, e.TaskLaunch+dur)
		span := TaskSpan{
			ID: t.ID, Kind: t.Kind, Start: start, End: end, Slot: slot,
			ReadEnd:    start + e.TaskLaunch + mergeT,
			ComputeEnd: end - writeT,
			ReadBytes:  float64(t.SpillBytes) * p.ScaleUp,
			WriteBytes: float64(t.WriteBytes) * p.ScaleUp,
			CacheBytes: float64(t.MemoryCacheBytes) * p.ScaleUp,
		}
		_ = computeT
		out.Consumers = append(out.Consumers, span)
		if end > reduceEnd {
			reduceEnd = end
		}
	}

	out.Total = reduceEnd
	// Job-level recovery: whole-stage relaunches pay startup again, and
	// the engine's virtual retry backoff plus any chaos-injected message
	// delays land on the critical path (inside Others, not MapShuffle).
	if st.Attempts > 1 {
		out.Total += float64(st.Attempts-1) * e.JobStartup
	}
	out.Total += st.RetryBackoffSec + st.ChaosDelaySec + st.RereplicationSec + st.AdaptSec
	out.MapShuffle = shuffleEnd - mapStart
	out.Others = out.Total - out.Startup - out.MapShuffle
	if out.Others < 0 {
		out.Others = 0
	}
	return out
}

// QueryTiming aggregates a query's stages: run back to back as the
// serial driver executes them, or along the stage DAG's critical path
// when the query ran overlapped.
type QueryTiming struct {
	Compile float64
	Stages  []*StageTiming
	Total   float64
}

// SimulateQuery simulates every stage of a query trace. For a serial
// query the total is compile plus the sum of stage times; for a
// DAG-overlapped query each stage starts at the latest finish of its
// dependencies (sum along dependency chains, max over parallel
// branches) and the total is compile plus the DAG's makespan.
func (p *Params) SimulateQuery(q *trace.Query) *QueryTiming {
	compile := p.Compile
	if q.CachedPlan {
		compile = 0 // plan served from the compiled-plan cache
	}
	out := &QueryTiming{Compile: compile}
	finish := make(map[string]float64, len(q.Stages))
	var makespan float64
	for _, st := range q.Stages {
		sim := p.SimulateStage(st)
		if q.Overlapped {
			var startAt float64
			for _, dep := range st.DependsOn {
				if f, ok := finish[dep]; ok && f > startAt {
					startAt = f
				}
			}
			sim.StartAt = startAt
		} else {
			sim.StartAt = makespan
		}
		end := sim.StartAt + sim.Total
		finish[st.Name] = end
		if end > makespan {
			makespan = end
		}
		out.Stages = append(out.Stages, sim)
	}
	out.Total = compile + makespan
	return out
}

// SimulateQueries sums a sequence of queries (a multi-statement script).
func (p *Params) SimulateQueries(qs []*trace.Query) float64 {
	var total float64
	for _, q := range qs {
		total += p.SimulateQuery(q).Total
	}
	return total
}

// SortSpans orders spans by start time (for rendering).
func SortSpans(spans []TaskSpan) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
}
