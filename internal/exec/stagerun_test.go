package exec

import (
	"sync"
	"testing"

	"hivempi/internal/types"
)

// TestRowCollectorTaskOrderAndRestart: tasks append concurrently, each
// to its own shard, and Rows merges the shards in task order whatever
// order the tasks ran in. Starting a task's attempt again drops what
// its earlier attempt collected, and leaves the other tasks' rows.
func TestRowCollectorTaskOrderAndRestart(t *testing.T) {
	const tasks, perTask = 4, 300
	c := NewRowCollector(tasks)
	if got := c.Rows(); got != nil {
		t.Fatalf("an empty collector holds %d rows", len(got))
	}
	var wg sync.WaitGroup
	for task := tasks - 1; task >= 0; task-- {
		wg.Add(1)
		go func(task int) {
			defer wg.Done()
			sink := c.start(task)
			for i := 0; i < perTask; i++ {
				if err := sink(types.Row{types.Int(int64(task)), types.Int(int64(i))}); err != nil {
					t.Error(err)
				}
			}
		}(task)
	}
	wg.Wait()

	// Task 2's second attempt fails after 7 rows; its third completes
	// with fewer rows than the first.
	for attempt, n := range []int{7, 5} {
		sink := c.start(2)
		for i := 0; i < n; i++ {
			if err := sink(types.Row{types.Int(2), types.Int(int64(1000*(attempt+1) + i))}); err != nil {
				t.Fatal(err)
			}
		}
	}

	got := c.Rows()
	if want := 3*perTask + 5; len(got) != want {
		t.Fatalf("collected %d rows, want %d", len(got), want)
	}
	var pos int
	for task := 0; task < tasks; task++ {
		n := perTask
		first := int64(0)
		if task == 2 {
			n, first = 5, 2000
		}
		for i := 0; i < n; i++ {
			r := got[pos]
			if r[0].Int() != int64(task) || r[1].Int() != first+int64(i) {
				t.Fatalf("row %d = %v, want task %d row %d", pos, r, task, first+int64(i))
			}
			pos++
		}
	}
}
