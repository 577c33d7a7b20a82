package hadoop

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hivempi/internal/kvio"
)

// TestMapRetryRecoversFromTransientFailure injects a one-shot failure
// into a map task and verifies the job still produces complete,
// correct output.
func TestMapRetryRecoversFromTransientFailure(t *testing.T) {
	words, want := wordCorpus(3000)
	runs := kvio.RunsOutstanding()
	// The buffer is small enough that the failing attempt has spilled
	// before it fails: the retry must not inherit or leak those runs.
	job, err := NewJob(Config{
		NumMaps: 4, NumReduces: 2, MaxAttempts: 3, SortBufferBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	var failed atomic.Bool
	var mu sync.Mutex
	counts := map[string]int{}
	per := (len(words) + 3) / 4
	err = job.Run(
		func(m *MapContext) error {
			lo, hi := m.TaskID()*per, (m.TaskID()+1)*per
			if hi > len(words) {
				hi = len(words)
			}
			for i, w := range words[lo:hi] {
				// Fail task 2 halfway through its first attempt, after
				// it already emitted (and possibly spilled) pairs.
				if m.TaskID() == 2 && i == 100 && failed.CompareAndSwap(false, true) {
					return fmt.Errorf("injected transient failure")
				}
				if err := m.Emit([]byte(w), []byte("1")); err != nil {
					return err
				}
			}
			return nil
		},
		func(r *ReduceContext) error {
			for {
				key, vals, err := r.NextGroup()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				mu.Lock()
				counts[string(key)] += len(vals)
				mu.Unlock()
			}
		})
	if err != nil {
		t.Fatalf("job failed despite retry budget: %v", err)
	}
	if !failed.Load() {
		t.Fatal("failure was never injected")
	}
	checkCounts(t, counts, want)
	checkRunsReturned(t, runs)
}

// TestMapRetryExhaustionFailsJob verifies a persistently failing task
// surfaces its error after MaxAttempts.
func TestMapRetryExhaustionFailsJob(t *testing.T) {
	var attempts atomic.Int32
	runs := kvio.RunsOutstanding()
	job, err := NewJob(Config{NumMaps: 1, NumReduces: 1, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	err = job.Run(
		func(m *MapContext) error {
			attempts.Add(1)
			return fmt.Errorf("permanent failure")
		},
		func(r *ReduceContext) error {
			for {
				if _, _, err := r.NextGroup(); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
			}
		})
	if err == nil || !strings.Contains(err.Error(), "permanent failure") {
		t.Fatalf("expected surfaced failure, got %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("task attempted %d times, want 3", got)
	}
	if !strings.Contains(err.Error(), "attempt 3") {
		t.Errorf("error should name the final attempt: %v", err)
	}
	checkRunsReturned(t, runs)
}

// TestRetryDoesNotDoubleCount ensures a retried task's metrics reflect
// only the successful attempt.
func TestRetryDoesNotDoubleCount(t *testing.T) {
	runs := kvio.RunsOutstanding()
	job, err := NewJob(Config{NumMaps: 1, NumReduces: 1, MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	var failed atomic.Bool
	err = job.Run(
		func(m *MapContext) error {
			for i := 0; i < 50; i++ {
				if err := m.Emit([]byte{byte(i)}, []byte("v")); err != nil {
					return err
				}
			}
			if failed.CompareAndSwap(false, true) {
				return fmt.Errorf("fail after emitting")
			}
			return nil
		},
		func(r *ReduceContext) error {
			n := 0
			for {
				_, vals, err := r.NextGroup()
				if err == io.EOF {
					if n != 50 {
						return fmt.Errorf("reduce saw %d pairs, want 50", n)
					}
					return nil
				}
				if err != nil {
					return err
				}
				n += len(vals)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := job.MapMetrics()[0].ShuffleOutPairs; got != 50 {
		t.Errorf("metrics count %d pairs, want 50 (no double counting)", got)
	}
	checkRunsReturned(t, runs)
}
