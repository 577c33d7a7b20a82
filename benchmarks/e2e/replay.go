package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"hivempi/internal/datampi"
	"hivempi/internal/exec"
	"hivempi/internal/hadoop"
	"hivempi/internal/kvio"
	"hivempi/internal/storage"
	"hivempi/internal/types"
)

// replayTotals are one pass's stage-replay measurements: the standalone
// cost of each layer's exported calls at the stage's real volume, each
// timed in one goroutine (the two shuffle jobs spawn their own ranks).
// They are not self times and do not sum to the pass.
type replayTotals struct {
	scanNs, mapNs, sortNs, mergeNs, reduceNs int64
	writeNs, dfsWriteNs, dfsReadNs           int64
	datampiNs, hadoopNs                      int64

	scanRows, scanBytes int64
	mapOutPairs         int64
	writeBytes          int64
	datampiBytes        int64
}

// replayEngine decorates an engine for the replay pass: after each
// stage has run for real it replays that stage's layers while the
// stage's inputs still exist. The lock serialises whole stages, so a
// replay never competes with another stage for the CPU.
type replayEngine struct {
	inner    exec.Engine
	spillDir string

	mu  sync.Mutex
	tot replayTotals
	seq int
	err error
}

func (e *replayEngine) Name() string { return e.inner.Name() }

func (e *replayEngine) Run(env *exec.Env, stage *exec.Stage, conf exec.EngineConf) (*exec.StageResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	res, err := e.inner.Run(env, stage, conf)
	if err != nil {
		return res, err
	}
	e.seq++
	scratch := fmt.Sprintf("/e2e-replay/%05d", e.seq)
	if rerr := e.replay(env, stage, conf, scratch); rerr != nil && e.err == nil {
		e.err = fmt.Errorf("replay of stage %s: %w", stage.ID, rerr)
	}
	env.FS.DeleteDir(scratch)
	return res, nil
}

func since(t0 time.Time) int64 { return time.Since(t0).Nanoseconds() }

func (e *replayEngine) replay(env *exec.Env, stage *exec.Stage, conf exec.EngineConf, scratch string) error {
	tot := &e.tot
	tasks, err := exec.PlanMapTasks(env, stage, conf)
	if err != nil {
		return err
	}

	// storage: decode every split with the stage's projection and
	// predicate, nothing downstream.
	var scanNs int64
	for _, t := range tasks {
		if t.Split.Path == "" {
			continue
		}
		in := stage.Maps[t.MapIdx].Input
		t0 := time.Now()
		rd, err := storage.OpenSplit(env.FS, t.Split, in.Format, in.Schema, in.Projection, in.Predicate)
		if err != nil {
			return err
		}
		for {
			if _, err := rd.Next(); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
			tot.scanRows++
		}
		scanNs += since(t0)
		if pr, ok := rd.(storage.PhysicalReader); ok {
			tot.scanBytes += pr.PhysicalBytes()
		} else {
			tot.scanBytes += t.Split.Length
		}
	}
	tot.scanNs += scanNs

	// dfs: the same input files as raw bytes.
	seen := map[string]bool{}
	for _, t := range tasks {
		if p := t.Split.Path; p != "" && !seen[p] {
			seen[p] = true
			t0 := time.Now()
			if _, err := env.FS.ReadFile(p); err != nil {
				return err
			}
			tot.dfsReadNs += since(t0)
		}
	}

	// exec map side: the full map task on the same splits, with the
	// shuffle pairs captured in wire encoding and the sink rows kept
	// for the write replay. Scan time is subtracted.
	pairs := make([][]byte, len(tasks))
	rows := make([][]types.Row, len(tasks))
	var mapNs int64
	for i, t := range tasks {
		i := i
		var emit exec.KVEmit
		var out exec.RowSink
		if stage.Shuffle != nil {
			emit = func(k, v []byte) error {
				pairs[i] = kvio.AppendKV(pairs[i], k, v)
				tot.mapOutPairs++
				return nil
			}
		} else {
			out = func(r types.Row) error {
				if stage.Sink != nil {
					rows[i] = append(rows[i], r)
				}
				return nil
			}
		}
		t0 := time.Now()
		if err := exec.RunMapTask(env, conf, stage, t.MapIdx, t.Split, emit, out, nil); err != nil {
			return err
		}
		mapNs += since(t0)
	}
	tot.mapNs += mapNs - scanNs

	if stage.Shuffle != nil {
		numA := exec.ReducerCount(stage, conf, len(tasks), exec.SizingBytes(stage, tasks))
		ad := conf.Adaptation
		if ad.Repartitions() {
			numA = ad.NumTargets
		}
		numKeys, partKeys := len(stage.Maps[0].Keys), stage.Shuffle.PartitionKeys
		partition := func(key []byte, n int) int {
			if ad.Repartitions() {
				return ad.Partition(key, partKeys, numKeys)
			}
			return exec.PartitionForKey(key, partKeys, numKeys, n)
		}
		rows, err = e.replayReduceSide(env, stage, pairs, numA, partition)
		if err != nil {
			return err
		}
		if err := e.replayShuffle(conf, pairs, numA, partition); err != nil {
			return err
		}
	}

	// storage + dfs write side: the stage's sink rows into scratch part
	// files, one per producing task like the engines, then the same
	// bytes through the raw DFS.
	if stage.Sink == nil {
		return nil
	}
	for i, part := range rows {
		path := fmt.Sprintf("%s/part-%05d", scratch, i)
		t0 := time.Now()
		w, err := storage.CreateTableFile(env.FS, path, stage.Sink.Format, stage.Sink.Schema)
		if err != nil {
			return err
		}
		for _, r := range part {
			if err := w.Write(r); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		tot.writeNs += since(t0)

		data, err := env.FS.ReadFile(path)
		if err != nil {
			return err
		}
		tot.writeBytes += int64(len(data))
		t0 = time.Now()
		if err := env.FS.WriteFile(path+".raw", data); err != nil {
			return err
		}
		tot.dfsWriteNs += since(t0)
	}
	return nil
}

// replayReduceSide runs kvio decode+sort per (task, partition) run, the
// k-way merge with grouping, and the reduce operators; it returns the
// reduce output rows per partition.
func (e *replayEngine) replayReduceSide(env *exec.Env, stage *exec.Stage, pairs [][]byte,
	numA int, partition func([]byte, int) int) ([][]types.Row, error) {
	tot := &e.tot
	runs := make([][][]kvio.KV, numA) // [partition][task] sorted run
	t0 := time.Now()
	for _, buf := range pairs {
		kvs, err := kvio.DecodeAll(buf)
		if err != nil {
			return nil, err
		}
		byPart := make([][]kvio.KV, numA)
		for _, kv := range kvs {
			p := partition(kv.Key, numA)
			byPart[p] = append(byPart[p], kv)
		}
		for p, run := range byPart {
			if len(run) > 0 {
				kvio.Sort(run)
				runs[p] = append(runs[p], run)
			}
		}
	}
	tot.sortNs += since(t0)

	grouper := func(p int) (*kvio.Grouper, error) {
		sources := make([]kvio.Source, len(runs[p]))
		for i, run := range runs[p] {
			sources[i] = &kvio.SliceSource{KVs: run}
		}
		m, err := kvio.NewMerge(sources)
		if err != nil {
			return nil, err
		}
		return kvio.NewGrouper(m), nil
	}

	// Merge alone, drained.
	t0 = time.Now()
	for p := 0; p < numA; p++ {
		g, err := grouper(p)
		if err != nil {
			return nil, err
		}
		for {
			if _, _, err := g.NextGroup(); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
		}
	}
	mergeNs := since(t0)
	tot.mergeNs += mergeNs

	// Merge again feeding the reduce operators; the merge share is
	// subtracted.
	out := make([][]types.Row, numA)
	t0 = time.Now()
	for p := 0; p < numA; p++ {
		p := p
		sink := func(r types.Row) error {
			if stage.Sink != nil {
				out[p] = append(out[p], r)
			}
			return nil
		}
		driver, err := exec.NewReduceDriver(env, stage.Reduce, sink, nil)
		if err != nil {
			return nil, err
		}
		g, err := grouper(p)
		if err != nil {
			return nil, err
		}
		for !driver.LimitReached() {
			key, vals, err := g.NextGroup()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			if err := driver.Feed(key, vals); err != nil {
				return nil, err
			}
		}
		if err := driver.Close(); err != nil {
			return nil, err
		}
	}
	if d := since(t0) - mergeNs; d > 0 {
		tot.reduceNs += d
	}
	return out, nil
}

// replayShuffle pushes the captured pairs through the engine's own
// shuffle library at the stage's O x A geometry, with trivial task
// bodies: O/map ranks only send, A/reduce ranks only drain.
func (e *replayEngine) replayShuffle(conf exec.EngineConf, pairs [][]byte, numA int,
	partition func([]byte, int) int) error {
	decoded := make([][]kvio.KV, len(pairs))
	var bytes int64
	for i, buf := range pairs {
		kvs, err := kvio.DecodeAll(buf)
		if err != nil {
			return err
		}
		decoded[i] = kvs
		bytes += int64(len(buf))
	}
	drain := func(next func() ([]byte, [][]byte, error)) error {
		for {
			if _, _, err := next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}
	if e.inner.Name() == "hadoop" {
		job, err := hadoop.NewJob(hadoop.Config{
			NumMaps:         len(pairs),
			NumReduces:      numA,
			Partitioner:     partition,
			SortBufferBytes: conf.SortBufferBytes,
			MapSlots:        conf.MaxSlots(),
			ReduceSlots:     conf.MaxSlots(),
			SpillDir:        e.spillDir,
		})
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = job.Run(func(m *hadoop.MapContext) error {
			for _, kv := range decoded[m.TaskID()] {
				if err := m.Emit(kv.Key, kv.Value); err != nil {
					return err
				}
			}
			return nil
		}, func(r *hadoop.ReduceContext) error { return drain(r.NextGroup) })
		e.tot.hadoopNs += since(t0)
		return err
	}
	job, err := datampi.NewJob(datampi.Config{
		NumO:            len(pairs),
		NumA:            numA,
		Partitioner:     partition,
		SendBufferBytes: conf.SendBufferBytes,
		SendQueueSize:   conf.SendQueueSize,
		MemUsedPercent:  conf.MemUsedPercent,
		TaskMemoryBytes: conf.TaskMemoryBytes,
		NonBlocking:     conf.NonBlocking,
		SpillDir:        e.spillDir,
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = job.Run(func(o *datampi.OContext) error {
		for _, kv := range decoded[o.Rank()] {
			if err := o.Send(kv.Key, kv.Value); err != nil {
				return err
			}
		}
		return nil
	}, func(a *datampi.AContext) error { return drain(a.NextGroup) })
	e.tot.datampiNs += since(t0)
	e.tot.datampiBytes += bytes
	return err
}
