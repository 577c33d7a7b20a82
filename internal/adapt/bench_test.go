package adapt

import (
	"fmt"
	"testing"

	"hivempi/internal/exec"
	"hivempi/internal/trace"
)

// The adapt runtime sits on the stage-launch path: Decide runs once
// per stage, Partition once per shuffle key. These benchmarks bound
// that overhead and feed BENCH_skew.json / benchdiff.

func benchRuntime(parts int) (*Runtime, *exec.Stage, exec.EngineConf) {
	rt := New()
	conf := exec.DefaultEngineConf() // 7 nodes x 4 slots
	weights := make([]int64, parts)
	for i := range weights {
		weights[i] = 100
	}
	weights[0] = int64(parts) * 250 // one dominant bucket
	observeProducer(rt, "tmp/bench", weights)
	return rt, consumerStage("tmp/bench", parts), conf
}

func BenchmarkDecide(b *testing.B) {
	for _, parts := range []int{8, 64} {
		b.Run(fmt.Sprintf("parts%d", parts), func(b *testing.B) {
			rt, stage, conf := benchRuntime(parts)
			all := []*exec.Stage{stage}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ad := rt.Decide(stage, all, &conf); !ad.Repartitions() {
					b.Fatal("benchmark fixture did not repartition")
				}
			}
		})
	}
}

func BenchmarkPartition(b *testing.B) {
	rt, stage, conf := benchRuntime(16)
	ad := rt.Decide(stage, []*exec.Stage{stage}, &conf)
	if !ad.Repartitions() {
		b.Fatal("benchmark fixture did not repartition")
	}
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("customer-%05d", i*37))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ad.Partition(keys[i%len(keys)], 0, 1)
	}
}

func BenchmarkObserve(b *testing.B) {
	const parts = 32
	stage := &exec.Stage{
		ID:      "bench_observe",
		Maps:    []exec.MapWork{{Input: exec.TableInput{Table: "base"}, Keys: make([]exec.Expr, 1)}},
		Shuffle: &exec.ShuffleSpec{NumReducers: parts},
		Reduce:  &exec.ReduceWork{},
		Sink:    &exec.FileSinkSpec{Dir: "tmp/observe"},
	}
	st := &trace.Stage{Name: stage.ID, Engine: "datampi", NumMaps: 8, NumReds: parts}
	for o := 0; o < 8; o++ {
		pb := make([]int64, parts)
		for a := range pb {
			pb[a] = int64(100 * (a + o + 1))
		}
		st.Producers = append(st.Producers, &trace.Task{
			ID: o, Host: fmt.Sprintf("slave%d", o%4+1), PartitionBytes: pb,
			InputRecords: 10_000, OutputRecords: 2_000, InputBytes: 1 << 20,
		})
	}
	for a := 0; a < parts; a++ {
		st.Consumers = append(st.Consumers, &trace.Task{ID: a, WriteBytes: int64(100 * (a + 1))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := New()
		rt.Observe(stage, st)
	}
}
