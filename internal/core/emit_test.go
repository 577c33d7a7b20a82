package core

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"

	"hivempi/internal/datampi"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/hadoop"
	"hivempi/internal/trace"
)

// TestEmittersCopyPairs holds the three exec.KVEmit implementations to
// the type's contract. A map task encodes every pair into the same two
// buffers, so the pairs go in from reused buffers that are overwritten
// as soon as emit returns: an emitter that kept the slices instead of
// copying would deliver the poison.
func TestEmittersCopyPairs(t *testing.T) {
	const n = 300
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("key-%04d=value-%d", i, i*i)
	}
	feed := func(emit exec.KVEmit) error {
		var key, val []byte
		for i := 0; i < n; i++ {
			key = fmt.Appendf(key[:0], "key-%04d", i)
			val = fmt.Appendf(val[:0], "value-%d", i*i)
			if err := emit(key, val); err != nil {
				return err
			}
			for j := range key {
				key[j] = 0xAA
			}
			for j := range val {
				val[j] = 0xAA
			}
		}
		return nil
	}
	// collect gathers what the reduce side of either engine sees.
	var mu sync.Mutex
	collect := func(got *[]string, next func() ([]byte, [][]byte, error)) error {
		for {
			k, vs, err := next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			mu.Lock()
			for _, v := range vs {
				*got = append(*got, fmt.Sprintf("%s=%s", k, v))
			}
			mu.Unlock()
		}
	}

	cases := map[string]func() ([]string, error){
		"OContext.Send": func() ([]string, error) {
			// Tiny blocks so the pairs cross many flushes.
			job, err := datampi.NewJob(datampi.Config{NumO: 1, NumA: 2, SendBufferBytes: 256,
				NonBlocking: true})
			if err != nil {
				return nil, err
			}
			var got []string
			err = job.Run(func(o *datampi.OContext) error { return feed(o.Send) },
				func(a *datampi.AContext) error { return collect(&got, a.NextGroup) })
			return got, err
		},
		"MapContext.Emit": func() ([]string, error) {
			job, err := hadoop.NewJob(hadoop.Config{NumMaps: 1, NumReduces: 2, SortBufferBytes: 1024})
			if err != nil {
				return nil, err
			}
			var got []string
			err = job.Run(func(m *hadoop.MapContext) error { return feed(m.Emit) },
				func(r *hadoop.ReduceContext) error { return collect(&got, r.NextGroup) })
			return got, err
		},
		"checkpointRecorder.record": func() ([]string, error) {
			env := &exec.Env{FS: dfs.New(dfs.Config{BlockSize: 1 << 10, Nodes: []string{"n1"}})}
			var rec checkpointRecorder
			if err := feed(func(k, v []byte) error { rec.record(k, v); return nil }); err != nil {
				return nil, err
			}
			rec.commit(env, "s", 0, &trace.Task{})
			_, pairs, ok := readCheckpoint(env, "s", 0)
			if !ok {
				return nil, fmt.Errorf("checkpoint not readable")
			}
			var got []string
			for _, p := range pairs {
				got = append(got, fmt.Sprintf("%s=%s", p.Key, p.Value))
			}
			return got, nil
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := run()
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(got)
			if len(got) != n {
				t.Fatalf("%d pairs came out, want %d", len(got), n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pair %d = %q, want %q", i, got[i], want[i])
				}
			}
		})
	}
}
