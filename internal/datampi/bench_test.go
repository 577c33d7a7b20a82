package datampi

import (
	"fmt"
	"testing"
)

// benchSend pushes b.N pairs through MPI_D_Send with the given shuffle
// configuration and drains them at the A side. allocs/op is the
// interesting number: the pooled send-partition buffers keep the
// steady-state hot path allocation-free.
func benchSend(b *testing.B, cfg Config) {
	b.Helper()
	cfg.NumO = 1
	cfg.NumA = 4
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
	}
	val := []byte("12345678")
	job, err := NewJob(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	err = job.Run(
		func(o *OContext) error {
			for i := 0; i < b.N; i++ {
				if err := o.Send(keys[i%len(keys)], val); err != nil {
					return err
				}
			}
			return nil
		},
		drainGroups)
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSendBlocking(b *testing.B) {
	benchSend(b, Config{NonBlocking: false})
}

func BenchmarkSendNonBlocking(b *testing.B) {
	benchSend(b, Config{NonBlocking: true})
}

func BenchmarkSendNonBlockingCombiner(b *testing.B) {
	benchSend(b, Config{
		NonBlocking: true,
		Combiner: func(key []byte, vals [][]byte) [][]byte {
			return vals[:1]
		},
	})
}

// BenchmarkShortOTask is one whole job per iteration whose single O
// task sends 20 KiB over 8 partitions and finalizes: Hive's short,
// irregular tasks, where what a task pays to get its Send Partition
// List blocks outweighs what it pays to fill them. The BenchmarkSend*
// above run one long-lived task and cannot see that cost.
func BenchmarkShortOTask(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		job, err := NewJob(Config{NumO: 1, NumA: 8, NonBlocking: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := job.Run(shortOTask, drainGroups); err != nil {
			b.Fatal(err)
		}
	}
}
