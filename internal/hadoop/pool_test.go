package hadoop

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"hivempi/internal/kvio"
)

// TestConcurrentJobsNeverSeeEachOthersPairs: two jobs run at once and
// trade collect buffers through the process-wide pool at every task
// start and end. Each fills its keys and values with its own byte; a
// reducer that reads anything else was fed from an arena another task
// was still collecting into, or one recycled before its spill was
// written.
func TestConcurrentJobsNeverSeeEachOthersPairs(t *testing.T) {
	const pairs = 4000 // ~300 KB per map: several spills, then a merge
	runJob := func(fill byte, combine Combiner) error {
		job, err := NewJob(Config{NumMaps: 6, NumReduces: 3, MapSlots: 3, SortBufferBytes: 48 << 10,
			Combiner: combine})
		if err != nil {
			return err
		}
		var mu sync.Mutex
		got := 0
		err = job.Run(
			func(m *MapContext) error {
				key := bytes.Repeat([]byte{fill}, 24)
				val := bytes.Repeat([]byte{fill}, 48)
				for i := 0; i < pairs; i++ {
					key[0], key[1] = byte(i), byte(i>>8)
					if err := m.Emit(key, val); err != nil {
						return err
					}
				}
				return nil
			},
			func(r *ReduceContext) error {
				n := 0
				for {
					k, vs, err := r.NextGroup()
					if err == io.EOF {
						break
					}
					if err != nil {
						return err
					}
					if len(k) != 24 || bytes.Count(k[2:], []byte{fill}) != 22 {
						return fmt.Errorf("job %#x received key %x", fill, k)
					}
					for _, v := range vs {
						if bytes.Count(v, []byte{fill}) != len(v) || len(v) != 48 {
							return fmt.Errorf("job %#x received value %x", fill, v)
						}
					}
					n += len(vs)
				}
				mu.Lock()
				got += n
				mu.Unlock()
				return nil
			})
		if err == nil && got != 6*pairs {
			err = fmt.Errorf("job %#x received %d pairs, want %d", fill, got, 6*pairs)
		}
		return err
	}
	// One job's combiner hands its values straight back, so its spills
	// are written from the reused vals slice.
	passThrough := func(key []byte, values [][]byte) [][]byte { return values }
	errs := make(chan error, 2)
	go func() { errs <- runJob(0xA1, nil) }()
	go func() { errs <- runJob(0xB2, passThrough) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestCollectBuffersReturnOnEveryPath: however a map task ends, its
// collect buffer goes back to the pool, so a second identical job finds
// the first one's buffers and allocates next to nothing; so does every
// reduce task's copy arena. All tasks hold
// their buffers at once, the collector is off so no cycle empties the
// pool under the measurement, and the ceiling leaves room for the race
// detector's sync.Pool, which drops a quarter of all Puts.
func TestCollectBuffersReturnOnEveryPath(t *testing.T) {
	const (
		numMaps = 64
		pairs   = 1500 // ~110 KB per map against a 48 KiB buffer
	)
	boom := errors.New("mapper exploded")
	swallow := func([]byte, [][]byte) [][]byte { return nil }
	cases := []struct {
		name    string
		failing bool
	}{
		// The combiner swallows every pair, or the reduce-side copies
		// would drown the measurement.
		{"tasks succeed", false},
		{"bodies error mid-emit", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs := kvio.RunsOutstanding()
			run := func() {
				job, err := NewJob(Config{NumMaps: numMaps, NumReduces: 2, MapSlots: numMaps,
					SortBufferBytes: 48 << 10, Combiner: swallow})
				if err != nil {
					t.Fatal(err)
				}
				var holding sync.WaitGroup
				holding.Add(numMaps)
				err = job.Run(func(m *MapContext) error {
					key := make([]byte, 24)
					val := make([]byte, 48)
					for i := 0; i < pairs; i++ {
						key[0], key[1] = byte(i), byte(i>>8)
						if err := m.Emit(key, val); err != nil {
							return err
						}
						if i == pairs/2 {
							holding.Done()
							holding.Wait()
							if tc.failing {
								return boom
							}
						}
					}
					return nil
				}, drainReduce)
				if tc.failing != errors.Is(err, boom) {
					t.Fatalf("job ended with %v", err)
				}
				checkRunsReturned(t, runs)
			}
			run()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			// A cold buffer costs an arena and an index grown by
			// doubling, under 320 KB in all (a job that keeps its buffers
			// makes the next one allocate 21 MB); everything else a job
			// of this size allocates (task records, channels) is ~400 KB.
			const coldBuffer = 320 << 10
			if limit := uint64(numMaps * coldBuffer / 2); got > limit {
				t.Errorf("second job allocated %d KB; the first kept its buffers (ceiling %d KB, %d cold buffers are %d KB)",
					got>>10, limit>>10, numMaps, numMaps*coldBuffer>>10)
			}
			t.Logf("second job allocated %d KB", got>>10)
		})
	}
}

// TestAbandonReleasesBuffer: the attempt-level contract behind the job
// test above — after abandon the context holds neither buffer nor runs,
// and a second abandon (runMap calls it after a failed close, which may
// have released already) is harmless.
func TestAbandonReleasesBuffer(t *testing.T) {
	runs := kvio.RunsOutstanding()
	job, err := NewJob(Config{NumMaps: 1, NumReduces: 2, SortBufferBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	m := job.newMapContext(0)
	for i := 0; i < 100; i++ {
		if err := m.Emit([]byte{byte(i)}, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.spills) == 0 {
		t.Fatal("no spill to abandon")
	}
	m.abandon()
	if m.buf != nil || m.spills != nil {
		t.Errorf("after abandon: buffer %v, %d spills", m.buf != nil, len(m.spills))
	}
	m.abandon()
	checkRunsReturned(t, runs)
}
