package hadoop

import (
	"fmt"
	"testing"
)

// benchPairs is one map task's worth of shuffle traffic at the e2e
// geometry: ~100 KB of short grouped keys and small values.
func benchPairs() (keys, vals [][]byte) {
	const n = 3600
	keys, vals = make([][]byte, n), make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%05d", (i*7919)%1201))
		vals[i] = []byte(fmt.Sprintf("value-%012d", i))
	}
	return keys, vals
}

func firstValue(key []byte, values [][]byte) [][]byte { return values[:1] }

// BenchmarkMapCollectSpill is one map task's output path end to end:
// collect, sort, spill and close. One spill is the common case (the
// buffer outlasts the split) and ends in a promotion; four spills end
// in the partition-by-partition merge.
func BenchmarkMapCollectSpill(b *testing.B) {
	keys, vals := benchPairs()
	var wire int64
	for i := range keys {
		wire += int64(len(keys[i]) + len(vals[i]) + 2)
	}
	for _, bc := range []struct {
		name       string
		sortBuffer int
		combine    Combiner
	}{
		{"spills=1", 1 << 20, nil},
		{"spills=1/combiner", 1 << 20, firstValue},
		{"spills=4", int(wire)/4 + 1, nil},
		{"spills=4/combiner", int(wire)/4 + 1, firstValue},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{NumMaps: 1, NumReduces: 4, SortBufferBytes: bc.sortBuffer, Combiner: bc.combine}
			b.SetBytes(wire)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job, err := NewJob(cfg)
				if err != nil {
					b.Fatal(err)
				}
				m := job.newMapContext(0)
				for p := range keys {
					if err := m.Emit(keys[p], vals[p]); err != nil {
						b.Fatal(err)
					}
				}
				mo, err := m.close()
				if err != nil {
					b.Fatal(err)
				}
				mo.discard()
			}
		})
	}
}

// BenchmarkReduceCopyMerge is one reduce task's input path: copy its
// partition from eight map outputs, merge the segments and walk the
// groups.
func BenchmarkReduceCopyMerge(b *testing.B) {
	const numMaps = 8
	keys, vals := benchPairs()
	job, err := NewJob(Config{NumMaps: numMaps, NumReduces: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer job.cleanup()
	for m := 0; m < numMaps; m++ {
		err := job.runMap(m, func(ctx *MapContext) error {
			for p := range keys {
				if err := ctx.Emit(keys[p], vals[p]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	groups := 0
	body := func(r *ReduceContext) error {
		err := drainReduce(r)
		groups = int(r.metrics.ReduceGroups)
		r.metrics.ReduceGroups = 0
		return err
	}
	b.SetBytes(numMaps * job.mapMetrics[0].ShuffleOutBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		completions := make(chan int, numMaps)
		for m := 0; m < numMaps; m++ {
			completions <- m
		}
		close(completions)
		if err := job.runReduce(0, completions, body); err != nil {
			b.Fatal(err)
		}
		if groups != 1201 {
			b.Fatalf("%d groups", groups)
		}
	}
}
