package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/kvio"
	"hivempi/internal/metrics"
	"hivempi/internal/trace"
)

func TestCheckpointRoundTrip(t *testing.T) {
	env := &exec.Env{FS: dfs.New(dfs.Config{BlockSize: 128, Nodes: []string{"n1"}})}
	var rec checkpointRecorder
	want := []kvio.KV{
		{Key: []byte("k1"), Value: []byte("v1")},
		{Key: []byte(""), Value: []byte("empty-key")},
		{Key: []byte("k3"), Value: nil},
	}
	for _, p := range want {
		rec.record(p.Key, p.Value)
	}
	rec.commit(env, "stage-1", 3, &trace.Task{InputBytes: 4096, InputRecords: 37})
	meta, got, ok := readCheckpoint(env, "stage-1", 3)
	if !ok {
		t.Fatal("committed checkpoint not readable")
	}
	if meta.InputBytes != 4096 || meta.InputRecords != 37 {
		t.Errorf("meta round trip: %+v", meta)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Errorf("pair %d: got %q=%q want %q=%q", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
	// No tmp file left behind.
	if env.FS.Exists(checkpointPath("stage-1", 3) + ".tmp") {
		t.Error("tmp file survived commit")
	}
}

func TestCheckpointEmptyAndMissing(t *testing.T) {
	env := &exec.Env{FS: dfs.New(dfs.Config{BlockSize: 128, Nodes: []string{"n1"}})}
	if _, _, ok := readCheckpoint(env, "s", 0); ok {
		t.Fatal("missing checkpoint read as present")
	}
	// An empty checkpoint (task completed, emitted nothing) commits and
	// reads back as zero pairs — distinct from no checkpoint at all.
	var rec checkpointRecorder
	rec.commit(env, "s", 0, &trace.Task{})
	_, pairs, ok := readCheckpoint(env, "s", 0)
	if !ok || len(pairs) != 0 {
		t.Fatalf("empty checkpoint: ok=%v pairs=%d", ok, len(pairs))
	}
}

func TestCheckpointCorruptRejected(t *testing.T) {
	env := &exec.Env{FS: dfs.New(dfs.Config{BlockSize: 128, Nodes: []string{"n1"}})}
	if err := env.FS.WriteFile(checkpointPath("s", 1), []byte{0x05, 0x02, 'k'}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := readCheckpoint(env, "s", 1); ok {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestCheckpointOversizedSkipped(t *testing.T) {
	env := &exec.Env{FS: dfs.New(dfs.Config{BlockSize: 1 << 20, Nodes: []string{"n1"}})}
	var rec checkpointRecorder
	rec.record([]byte("k"), []byte("v"))
	rec.bytes = maxCheckpointBytes // pretend it's full
	rec.record([]byte("k2"), []byte("v2"))
	if !rec.oversized || rec.buf != nil {
		t.Fatalf("recorder did not trip the size cap and drop its buffer: oversized=%v", rec.oversized)
	}
	rec.commit(env, "s", 2, &trace.Task{})
	if _, _, ok := readCheckpoint(env, "s", 2); ok {
		t.Fatal("oversized checkpoint was committed")
	}
	// The next recorder, on the buffer the oversized one gave back,
	// still writes the unpooled recorder's bytes.
	var next checkpointRecorder
	pairs := []kvio.KV{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: nil}}
	for _, p := range pairs {
		next.record(p.Key, p.Value)
	}
	m := &trace.Task{InputBytes: 300, InputRecords: 2}
	next.commit(env, "s", 3, m)
	got, err := env.FS.ReadFile(checkpointPath("s", 3))
	if err != nil || !bytes.Equal(got, parentCommitBytes(pairs, m)) {
		t.Fatalf("recorder after an oversized one: %x, %v", got, err)
	}
}

// parentCommitBytes is the file the recorder wrote before its buffer was
// pooled: the two counters as uvarints, then every pair kvio-encoded,
// copied into one fresh slice.
func parentCommitBytes(pairs []kvio.KV, m *trace.Task) []byte {
	var body []byte
	for _, p := range pairs {
		body = kvio.AppendKV(body, p.Key, p.Value)
	}
	data := make([]byte, 0, 2*binary.MaxVarintLen64+len(body))
	data = binary.AppendUvarint(data, uint64(m.InputBytes))
	data = binary.AppendUvarint(data, uint64(m.InputRecords))
	return append(data, body...)
}

// TestCheckpointBytesMatchParent holds the committed file, its byte
// counter and the dfs write volume to the unpooled recorder's, with the
// counters at the uvarint length boundaries. The recorders run back to
// back, so later ones reuse a buffer an earlier one grew and returned.
func TestCheckpointBytesMatchParent(t *testing.T) {
	env := &exec.Env{FS: dfs.New(dfs.Config{BlockSize: 256, Nodes: []string{"n1"}}),
		Metrics: metrics.NewRegistry()}
	bounds := []int64{0, 127, 128, math.MaxInt64}
	rank := 0
	for _, npairs := range []int{0, 1, 40, 3} { // 40 pairs grow the buffer; 3 reuse it
		for _, ib := range bounds {
			for _, ir := range bounds {
				var pairs []kvio.KV
				for i := 0; i < npairs; i++ {
					pairs = append(pairs, kvio.KV{
						Key:   fmt.Appendf(nil, "key-%d-%d", rank, i),
						Value: bytes.Repeat([]byte{byte(i)}, i%17),
					})
				}
				m := &trace.Task{InputBytes: ib, InputRecords: ir}
				var rec checkpointRecorder
				for _, p := range pairs {
					rec.record(p.Key, p.Value)
				}
				before := env.FS.BytesWritten()
				ckptBefore := env.Metrics.Counter(metrics.CtrCheckpointBytes).Value()
				rec.commit(env, "s", rank, m)
				want := parentCommitBytes(pairs, m)
				got, err := env.FS.ReadFile(checkpointPath("s", rank))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%d pairs, counters (%d, %d): file differs from the parent's\ngot  %x\nwant %x",
						npairs, ib, ir, got, want)
				}
				if w := env.FS.BytesWritten() - before; w != int64(len(want)) {
					t.Errorf("dfs wrote %d bytes, want %d", w, len(want))
				}
				if c := env.Metrics.Counter(metrics.CtrCheckpointBytes).Value() - ckptBefore; c != int64(len(want)) {
					t.Errorf("checkpoint byte counter moved %d, want %d", c, len(want))
				}
				if rec.buf != nil {
					t.Error("commit kept its buffer")
				}
				rank++
			}
		}
	}
}

// TestCheckpointRecordersConcurrent: O tasks record and commit at once,
// sharing the buffer pool; no task's file may hold another's bytes.
func TestCheckpointRecordersConcurrent(t *testing.T) {
	env := &exec.Env{FS: dfs.New(dfs.Config{BlockSize: 512, Nodes: []string{"n1"}})}
	const tasks = 8
	want := make([][]byte, tasks)
	var wg sync.WaitGroup
	for rank := 0; rank < tasks; rank++ {
		var pairs []kvio.KV
		for i := 0; i < 50+rank*7; i++ {
			pairs = append(pairs, kvio.KV{Key: fmt.Appendf(nil, "r%d-k%d", rank, i), Value: bytes.Repeat([]byte{byte(rank)}, i%9)})
		}
		m := &trace.Task{InputBytes: int64(rank) << 20, InputRecords: int64(len(pairs))}
		want[rank] = parentCommitBytes(pairs, m)
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				var rec checkpointRecorder
				for _, p := range pairs {
					rec.record(p.Key, p.Value)
				}
				rec.commit(env, fmt.Sprintf("s%d", round), rank, m)
			}
		}(rank)
	}
	wg.Wait()
	for rank := 0; rank < tasks; rank++ {
		for round := 0; round < 20; round++ {
			got, err := env.FS.ReadFile(checkpointPath(fmt.Sprintf("s%d", round), rank))
			if err != nil || !bytes.Equal(got, want[rank]) {
				t.Fatalf("rank %d round %d: checkpoint differs (%v)", rank, round, err)
			}
		}
	}
}
