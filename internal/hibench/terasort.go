package hibench

import (
	"fmt"
	"math/rand"

	"hivempi/internal/exec"
	"hivempi/internal/hadoop"
	"hivempi/internal/trace"
)

// TeraSort is the "regular Hadoop job" the paper contrasts with Hive
// workloads in Fig. 2: uniformly distributed fixed-width records sorted
// by key. It runs directly on the Hadoop engine (no Hive layer), so its
// collect-time sequence shows the well-distributed pattern of a typical
// MapReduce job.

// TeraRecord sizes match teragen: 10-byte keys, 90-byte values.
const (
	teraKeyBytes   = 10
	teraValueBytes = 90
	TeraRecordSize = teraKeyBytes + teraValueBytes
)

// TeraGen produces n uniformly random records.
func TeraGen(n int, seed int64) [][2][]byte {
	r := rand.New(rand.NewSource(seed))
	out := make([][2][]byte, n)
	for i := range out {
		key := make([]byte, teraKeyBytes)
		val := make([]byte, teraValueBytes)
		for j := range key {
			key[j] = byte(' ' + r.Intn(95))
		}
		r.Read(val)
		out[i] = [2][]byte{key, val}
	}
	return out
}

// RunTeraSort sorts the records with a MapReduce job and returns the
// stage trace. Output correctness is asserted by the caller via the
// returned sorted keys.
func RunTeraSort(records [][2][]byte, numMaps, numReduces int,
	conf exec.EngineConf) (*trace.Stage, [][]byte, error) {
	job, err := hadoop.NewJob(hadoop.Config{
		NumMaps:         numMaps,
		NumReduces:      numReduces,
		SortBufferBytes: conf.SortBufferBytes,
		MapSlots:        conf.MaxSlots(),
		ReduceSlots:     conf.MaxSlots(),
		// Range partitioner on the first key byte keeps global order
		// across reducers, like TeraSort's sampled partitioner.
		Partitioner: func(key []byte, n int) int {
			if len(key) == 0 {
				return 0
			}
			return int(key[0]) * n / 256
		},
	})
	if err != nil {
		return nil, nil, err
	}
	per := (len(records) + numMaps - 1) / numMaps
	var mu chan struct{} // buffered-1 semaphore for sorted output append
	mu = make(chan struct{}, 1)
	sorted := make([][][]byte, numReduces)
	err = job.Run(
		func(m *hadoop.MapContext) error {
			lo, hi := m.TaskID()*per, (m.TaskID()+1)*per
			if hi > len(records) {
				hi = len(records)
			}
			if lo > len(records) {
				lo = len(records)
			}
			for _, rec := range records[lo:hi] {
				if err := m.Emit(rec[0], rec[1]); err != nil {
					return err
				}
			}
			m.Metrics().InputRecords = int64(hi - lo)
			m.Metrics().InputBytes = int64((hi - lo) * TeraRecordSize)
			return nil
		},
		func(r *hadoop.ReduceContext) error {
			var keys [][]byte
			for {
				key, vals, err := r.NextGroup()
				if err != nil {
					break
				}
				key = append([]byte(nil), key...) // valid only until the next group
				for range vals {
					keys = append(keys, key)
				}
			}
			mu <- struct{}{}
			sorted[r.TaskID()] = keys
			<-mu
			return nil
		})
	if err != nil {
		return nil, nil, fmt.Errorf("terasort: %w", err)
	}
	var all [][]byte
	for _, part := range sorted {
		all = append(all, part...)
	}
	st := &trace.Stage{
		Name:      "terasort",
		Engine:    "hadoop",
		NumMaps:   numMaps,
		NumReds:   numReduces,
		Producers: job.MapMetrics(),
		Consumers: job.ReduceMetrics(),
		Comm:      job.Comm(),
	}
	return st, all, nil
}
