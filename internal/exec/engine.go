package exec

import (
	"fmt"

	"hivempi/internal/dfs"
	"hivempi/internal/trace"
	"hivempi/internal/types"
)

// Engine executes one plan stage. The two implementations are Hive on
// Hadoop MapReduce (internal/mrengine) and Hive on DataMPI
// (internal/core, the paper's contribution).
type Engine interface {
	Name() string
	Run(env *Env, stage *Stage, conf EngineConf) (*StageResult, error)
}

// ParallelismMode selects the task-count strategy (paper §IV-D).
type ParallelismMode string

// Parallelism modes.
const (
	// ParallelismDefault sizes reducers from the planner hint / input
	// size, bounded by the cluster's execution slots.
	ParallelismDefault ParallelismMode = "default"
	// ParallelismEnhanced sets the reducer count equal to the map/O
	// task count (1 for the query's last stage), alleviating data skew.
	ParallelismEnhanced ParallelismMode = "enhanced"
)

// EngineConf carries the deployment and tuning knobs shared by both
// engines, mirroring the paper's hive.datampi.* parameters plus the
// cluster geometry of §V-A (1 master + 7 slaves, 4 slots each).
type EngineConf struct {
	Slaves       []string // worker hostnames
	SlotsPerNode int

	Parallelism     ParallelismMode
	BytesPerReducer int64 // default-mode reducer sizing
	SortBufferBytes int   // Hadoop io.sort.mb analogue
	SendBufferBytes int   // DataMPI partition buffer
	SendQueueSize   int   // hive.datampi.sendqueue
	MemUsedPercent  float64
	TaskMemoryBytes int64
	NonBlocking     bool // DataMPI shuffle style
	// SpillDir is ignored: neither engine writes a host file (spills and
	// map outputs are in-memory runs). It stays only for callers that
	// still set it.
	SpillDir string
	// MaxTaskAttempts re-runs failed work: Hadoop map tasks re-execute
	// individually; the DataMPI engine retries the whole stage from
	// O-task checkpoints. Default 1 (no retries).
	MaxTaskAttempts int
	// DisableSpeculation turns off speculative re-launch of straggler
	// tasks (the zero value keeps speculation on).
	DisableSpeculation bool
	// Adaptation, when non-nil, is the skew-adaptive rewrite of this
	// stage's shuffle geometry computed by internal/adapt from the
	// producer's observed partition statistics (nil = planned geometry).
	// Per-stage: the scheduler sets it on a copy of the shared conf.
	Adaptation *ShuffleAdaptation
}

// DefaultEngineConf mirrors the paper's testbed at 1:1000 scale.
func DefaultEngineConf() EngineConf {
	return EngineConf{
		Slaves: []string{"slave1", "slave2", "slave3", "slave4",
			"slave5", "slave6", "slave7"},
		SlotsPerNode:    4,
		Parallelism:     ParallelismDefault,
		BytesPerReducer: 1 << 20,
		MemUsedPercent:  0.4,
		SendQueueSize:   6,
		NonBlocking:     true,
	}
}

// MaxSlots is the cluster-wide concurrent task bound.
func (c *EngineConf) MaxSlots() int {
	n := len(c.Slaves) * c.SlotsPerNode
	if n <= 0 {
		return 4
	}
	return n
}

// StageResult is one executed stage: its trace and collected rows.
type StageResult struct {
	Trace *trace.Stage
	Rows  []types.Row
}

// MapTaskSpec assigns one input split to one map/O task.
type MapTaskSpec struct {
	MapIdx int // index into stage.Maps
	Split  dfs.Split
	Host   string
	Local  bool
}

// PlanMapTasks computes the task list for a stage: every input path of
// every map work is chopped into splits; each split becomes a task
// hosted on its first UP replica (data locality). DEAD and SUSPECT
// nodes are blacklisted: when no live replica host remains the task
// runs remote (Host empty, non-local), and the read either fails over
// or surfaces BlockLostError for the scheduler's relaunch path.
func PlanMapTasks(env *Env, stage *Stage, conf EngineConf) ([]MapTaskSpec, error) {
	var tasks []MapTaskSpec
	for mi := range stage.Maps {
		for _, path := range stage.Maps[mi].Input.ResolvePaths(env.FS) {
			splits, err := env.FS.Splits(path, 0) // one split per DFS block
			if err != nil {
				return nil, fmt.Errorf("exec: splits for %s: %w", path, err)
			}
			for _, sp := range splits {
				host, local := "", false
				for _, h := range sp.Hosts {
					if env.NodeUp(h) {
						host, local = h, true
						break
					}
				}
				tasks = append(tasks, MapTaskSpec{MapIdx: mi, Split: sp, Host: host, Local: local})
			}
		}
	}
	if len(tasks) == 0 {
		// Empty inputs still need one task per map work so joins see
		// their empty side and sinks create output files.
		for mi := range stage.Maps {
			tasks = append(tasks, MapTaskSpec{MapIdx: mi})
		}
	}
	return tasks, nil
}

// ReducerCount applies the parallelism strategy (paper §IV-D).
func ReducerCount(stage *Stage, conf EngineConf, numMaps int, inputBytes int64) int {
	if stage.Shuffle == nil {
		return 0
	}
	// A global aggregate has one group by construction; every strategy
	// uses a single reducer (and the empty-input row stays unique).
	if len(stage.Maps) > 0 && stage.Maps[0].Keys != nil && len(stage.Maps[0].Keys) == 0 {
		return 1
	}
	// A planner hint of exactly 1 is semantic (total ORDER BY, global
	// LIMIT), not a sizing suggestion; it binds under every strategy.
	if stage.Shuffle.NumReducers == 1 {
		return 1
	}
	if conf.Parallelism == ParallelismEnhanced {
		if stage.LastStage {
			return 1
		}
		if numMaps < 1 {
			return 1
		}
		// |A| = |O|, bounded by the cluster's executing slots (the
		// paper's Q9 example raises 16 A tasks to 28, "the maximum
		// number of executing slots").
		if max := conf.MaxSlots(); numMaps > max {
			return max
		}
		return numMaps
	}
	n := stage.Shuffle.NumReducers
	if n <= 0 {
		per := conf.BytesPerReducer
		if per <= 0 {
			per = 1 << 20
		}
		n = int(inputBytes / per)
	}
	if n < 1 {
		n = 1
	}
	if max := conf.MaxSlots(); n > max {
		n = max
	}
	return n
}

// SizingBytes estimates a stage's logical input size for reducer
// sizing: per map work, the larger of the measured split bytes and the
// planner's raw-size estimate (compressed columnar inputs understate
// the work they fan out; Hive solves this with metastore statistics).
func SizingBytes(stage *Stage, tasks []MapTaskSpec) int64 {
	measured := make([]int64, len(stage.Maps))
	for _, t := range tasks {
		measured[t.MapIdx] += t.Split.Length
	}
	var total int64
	for mi := range stage.Maps {
		b := measured[mi]
		if raw := stage.Maps[mi].RawInputBytes; raw > b {
			b = raw
		}
		total += b
	}
	return total
}
