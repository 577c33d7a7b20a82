package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"testing"

	"hivempi/internal/datampi"
	"hivempi/internal/hadoop"
	"hivempi/internal/kvio"
	"hivempi/internal/trace"
)

// TestEnginesSpillWithoutTempDir: spills and map outputs are in-memory
// runs, so neither engine needs a writable temporary directory. Both
// run with several forced spills per task, with and without a
// combiner, once under a TMPDIR that does not exist and once under a
// writable one; each run must succeed, spill, and hand its reducers the
// same NextGroup stream.
func TestEnginesSpillWithoutTempDir(t *testing.T) {
	sum := func(key []byte, vals [][]byte) [][]byte {
		total := 0
		for _, v := range vals {
			n, _ := strconv.Atoi(string(v))
			total += n
		}
		return [][]byte{[]byte(strconv.Itoa(total))}
	}
	const tasks, reducers, pairs = 2, 3, 3000
	emit := func(task int, send func(key, value []byte) error) error {
		for i := 0; i < pairs; i++ {
			key := fmt.Appendf(nil, "key-%03d", (i*7+task)%257)
			if err := send(key, []byte(strconv.Itoa(i))); err != nil {
				return err
			}
		}
		return nil
	}
	// run executes one engine's job and returns each reducer's NextGroup
	// stream and the spill count over all tasks.
	engines := map[string]func(combine func([]byte, [][]byte) [][]byte) ([][]byte, int64, error){
		"hadoop": func(combine func([]byte, [][]byte) [][]byte) ([][]byte, int64, error) {
			job, err := hadoop.NewJob(hadoop.Config{NumMaps: tasks, NumReduces: reducers,
				SortBufferBytes: 4 << 10, Combiner: combine})
			if err != nil {
				return nil, 0, err
			}
			streams := make([][]byte, reducers)
			err = job.Run(func(m *hadoop.MapContext) error { return emit(m.TaskID(), m.Emit) },
				func(r *hadoop.ReduceContext) error {
					var err error
					streams[r.TaskID()], err = groupStream(r.NextGroup)
					return err
				})
			return streams, spillCount(job.MapMetrics()), err
		},
		"datampi": func(combine func([]byte, [][]byte) [][]byte) ([][]byte, int64, error) {
			job, err := datampi.NewJob(datampi.Config{NumO: tasks, NumA: reducers, NonBlocking: true,
				SendBufferBytes: 512, TaskMemoryBytes: 8 << 10, Combiner: combine})
			if err != nil {
				return nil, 0, err
			}
			streams := make([][]byte, reducers)
			err = job.Run(func(o *datampi.OContext) error { return emit(o.Rank(), o.Send) },
				func(a *datampi.AContext) error {
					var err error
					streams[a.Rank()], err = groupStream(a.NextGroup)
					return err
				})
			return streams, spillCount(job.AMetrics()), err
		},
	}
	for name, run := range engines {
		for _, combine := range []func([]byte, [][]byte) [][]byte{nil, sum} {
			t.Run(fmt.Sprintf("%s/combiner=%v", name, combine != nil), func(t *testing.T) {
				runs := kvio.RunsOutstanding()
				var want [][]byte
				for _, tmp := range []string{t.TempDir(), filepath.Join(t.TempDir(), "missing")} {
					t.Setenv("TMPDIR", tmp)
					got, spills, err := run(combine)
					if err != nil {
						t.Fatalf("TMPDIR=%s: %v", tmp, err)
					}
					if spills < 2*tasks {
						t.Fatalf("TMPDIR=%s: %d spills over %d tasks, want several per task", tmp, spills, tasks)
					}
					if want == nil {
						want = got
						continue
					}
					for r := range want {
						if string(got[r]) != string(want[r]) {
							t.Errorf("TMPDIR=%s: reducer %d's NextGroup stream differs from the one under a writable TMPDIR", tmp, r)
						}
					}
				}
				if n := kvio.RunsOutstanding() - runs; n != 0 {
					t.Errorf("%d sorted runs not returned to the pool", n)
				}
			})
		}
	}
}

func spillCount(tasks []*trace.Task) int64 {
	var n int64
	for _, m := range tasks {
		n += m.SpillCount
	}
	return n
}

// groupStream drains a NextGroup iterator into one byte string: per
// group, the value count, the key and every value in order.
func groupStream(next func() ([]byte, [][]byte, error)) ([]byte, error) {
	var out []byte
	for {
		key, vals, err := next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = binary.AppendUvarint(out, uint64(len(vals)))
		out = kvio.AppendKV(out, key, nil)
		for _, v := range vals {
			out = kvio.AppendKV(out, nil, v)
		}
	}
}
