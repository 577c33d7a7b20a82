package datampi

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"hivempi/internal/chaos"
	"hivempi/internal/kvio"
	"hivempi/internal/testutil/leakcheck"
)

// blockBytes is what one Send Partition List block costs to allocate at
// the default configuration.
const blockBytes = DefaultSendBufferBytes + 512

// allocatedBy reports the bytes run allocates. The collector is off
// meanwhile so that no cycle empties the block pool under the
// measurement; what is left to chance is the race detector's sync.Pool,
// which drops a quarter of all Puts, and the ceilings below leave room
// for it.
func allocatedBy(t *testing.T, run func()) uint64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func drainGroups(a *AContext) error {
	for {
		if _, _, err := a.NextGroup(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// TestConcurrentJobsNeverSeeEachOthersPairs: two jobs run at once and
// trade blocks through the process-wide pool on every flush. Each fills
// its keys and values with its own byte; an A task that received
// anything else was handed a block another task was still writing, or
// one recycled before the transport had copied it.
func TestConcurrentJobsNeverSeeEachOthersPairs(t *testing.T) {
	defer leakcheck.Check(t)()
	const pairs = 20000 // ~1.5 MB per O task: dozens of flushes each
	runJob := func(fill byte, nonBlocking bool) error {
		job, err := NewJob(Config{NumO: 3, NumA: 4, NonBlocking: nonBlocking, SpillDir: t.TempDir()})
		if err != nil {
			return err
		}
		var mu sync.Mutex
		got := 0
		err = job.Run(
			func(o *OContext) error {
				key := bytes.Repeat([]byte{fill}, 24)
				val := bytes.Repeat([]byte{fill}, 48)
				for i := 0; i < pairs; i++ {
					key[0], key[1] = byte(i), byte(i>>8) // spread over the partitions
					if err := o.Send(key, val); err != nil {
						return err
					}
				}
				return nil
			},
			func(a *AContext) error {
				n := 0
				for {
					k, vs, err := a.NextGroup()
					if err == io.EOF {
						break
					}
					if err != nil {
						return err
					}
					if bytes.Count(k[2:], []byte{fill}) != len(k)-2 {
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
		if err == nil && got != 3*pairs {
			err = fmt.Errorf("job %#x received %d pairs, want %d", fill, got, 3*pairs)
		}
		return err
	}
	errs := make(chan error, 2)
	go func() { errs <- runJob(0xA1, true) }()
	go func() { errs <- runJob(0xB2, false) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestBlocksReturnOnEveryPath: however a job ends, its tasks hand back
// the blocks they hold. Each case runs one job of 8 O tasks that touch
// 16 partitions each and wait for one another before they finish, so
// that 128 blocks are live at once, and then measures an identical
// second job, which must find those blocks in the pool instead of
// allocating its own. Every sorted run the job took (the A tasks'
// caches) must be back in the pool too.
func TestBlocksReturnOnEveryPath(t *testing.T) {
	defer leakcheck.Check(t)()
	const numO, numA = 8, 16
	boom := errors.New("operator exploded")
	cases := []struct {
		name     string
		cfg      Config
		failing  bool // O rank 3 errors after its sends
		failingA bool // A rank 5 errors after its first group
		wantErr  error
	}{
		{name: "clean non-blocking", cfg: Config{NonBlocking: true}},
		{name: "clean blocking", cfg: Config{NonBlocking: false}},
		{name: "O body errors mid-stream", cfg: Config{NonBlocking: true}, failing: true, wantErr: boom},
		{name: "message dropped in transit", cfg: Config{NonBlocking: true}, wantErr: chaos.ErrInjected},
		{name: "A body errors mid-merge", cfg: Config{NonBlocking: true}, failingA: true, wantErr: boom},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs := kvio.RunsOutstanding()
			run := func() {
				cfg := tc.cfg
				cfg.NumO, cfg.NumA, cfg.SpillDir = numO, numA, t.TempDir()
				if tc.wantErr == chaos.ErrInjected {
					cfg.Chaos = chaos.NewPlane(chaos.Plan{Specs: []chaos.Spec{
						{Kind: chaos.MsgDrop, Tag: tagData, After: 20},
					}})
				}
				job, err := NewJob(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var holding sync.WaitGroup
				holding.Add(numO)
				err = job.Run(func(o *OContext) error {
					for part := 0; part < numA; part++ {
						key := []byte{byte(part), byte(o.Rank())}
						if err := o.Send(key, []byte("v")); err != nil {
							return err
						}
					}
					holding.Done()
					holding.Wait()
					if tc.failing && o.Rank() == 3 {
						return boom
					}
					return nil
				}, func(a *AContext) error {
					if tc.failingA && a.Rank() == 5 {
						if _, _, err := a.NextGroup(); err != nil {
							return err
						}
						return boom
					}
					return drainGroups(a)
				})
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("job ended with %v, want %v", err, tc.wantErr)
				}
				if n := kvio.RunsOutstanding() - runs; n != 0 {
					t.Errorf("%d sorted runs not returned to the pool", n)
				}
				checkDirEmpty(t, cfg.SpillDir)
			}
			run()
			got := allocatedBy(t, run)
			// Everything else a job of this size allocates (world, task
			// records, messages) is ~150 KB.
			if limit := uint64(numO * numA * blockBytes / 2); got > limit {
				t.Errorf("second job allocated %d KB; the first kept its blocks (ceiling %d KB, %d blocks are %d KB)",
					got>>10, limit>>10, numO*numA, numO*numA*blockBytes>>10)
			}
			t.Logf("second job allocated %d KB", got>>10)
		})
	}
}

// TestShortOTaskAllocs is the case the pool exists for: a task that
// sends 20 KiB over 8 partitions and finalizes never fills a block, so
// a block per partition per task is almost all it would allocate. With
// the pool a task's steady-state cost is the copies the transport and
// the A side make of its 20 KiB.
func TestShortOTaskAllocs(t *testing.T) {
	defer leakcheck.Check(t)()
	const tasks = 64
	task := func() {
		job, err := NewJob(Config{NumO: 1, NumA: 8, NonBlocking: true, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Run(shortOTask, drainGroups); err != nil {
			t.Fatal(err)
		}
	}
	task()
	got := allocatedBy(t, func() {
		for i := 0; i < tasks; i++ {
			task()
		}
	}) / tasks
	const ceiling = 4 * blockBytes // the 8 blocks alone are twice this
	if got > ceiling {
		t.Errorf("a short O task allocates %d KB in steady state, ceiling %d KB", got>>10, ceiling>>10)
	}
	t.Logf("%d KB per short O task", got>>10)
}

// shortOTask sends 20 KiB in 80-byte pairs spread over 8 partitions.
func shortOTask(o *OContext) error {
	key := make([]byte, 16)
	val := make([]byte, 64)
	for i := 0; i < 20<<10/80; i++ {
		key[0] = byte(i)
		if err := o.Send(key, val); err != nil {
			return err
		}
	}
	return nil
}
