package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"hivempi/internal/exec"
	"hivempi/internal/kvio"
	"hivempi/internal/metrics"
	"hivempi/internal/trace"
)

// O-task checkpoints make stage retry cheap: a completed O task persists
// the exact key-value stream it sent to the A side under the stage's
// work directory, and a retry replays that stream instead of re-reading
// the split and re-running the operator tree. Commit is atomic
// (tmp-write + rename), so a torn checkpoint from a crashed attempt is
// never replayed. Checkpoints live next to the DataMPIWork descriptor
// and are removed with it by cleanupWork.

// maxCheckpointBytes bounds one task's checkpoint; tasks emitting more
// simply skip checkpointing and re-run on retry.
const maxCheckpointBytes = 64 << 20

// checkpointMeta preserves the original attempt's input-side counters.
// A replay re-sends pairs without re-reading the split, so without
// these the salvaged read/compute work would vanish from the trace and
// the perfmodel would price a recovered run below a clean one.
type checkpointMeta struct {
	InputBytes   int64
	InputRecords int64
}

// checkpointPath is where rank's O-task checkpoint lives on the DFS.
func checkpointPath(stageID string, rank int) string {
	return fmt.Sprintf("%s/%s/ckpt-o-%05d", workDir, stageID, rank)
}

// checkpointRecorder accumulates one O task's emitted pairs as a single
// flat kvio-encoded buffer: one append per pair on the shuffle hot
// path, instead of two per-pair clone allocations. The buffer comes
// from ckptBufs with ckptHeaderRoom bytes reserved at its front, so
// commit writes the header in place instead of copying the pairs
// behind it.
type checkpointRecorder struct {
	buf       *[]byte
	bytes     int64
	oversized bool
}

// ckptHeaderRoom holds the two uvarint input counters.
const ckptHeaderRoom = 2 * binary.MaxVarintLen64

// ckptBufs recycles recorder buffers across O tasks, so a task's pairs
// land in capacity an earlier task already grew. dfs copies what it is
// given, so a buffer goes back as soon as commit has written it.
var ckptBufs = sync.Pool{New: func() any { return new([]byte) }}

// record appends one emitted pair (copying, since the engine may reuse
// the key/value buffers).
func (r *checkpointRecorder) record(k, v []byte) {
	if r.oversized {
		return
	}
	r.bytes += int64(len(k) + len(v))
	if r.bytes > maxCheckpointBytes {
		r.oversized = true
		r.release()
		return
	}
	if r.buf == nil {
		r.take()
	}
	*r.buf = kvio.AppendKV(*r.buf, k, v)
}

// take gets a pooled buffer, emptied down to its header room.
func (r *checkpointRecorder) take() {
	r.buf = ckptBufs.Get().(*[]byte)
	*r.buf = append((*r.buf)[:0], make([]byte, ckptHeaderRoom)...)
}

// release returns the buffer to the pool.
func (r *checkpointRecorder) release() {
	if r.buf != nil {
		ckptBufs.Put(r.buf)
		r.buf = nil
	}
}

// commit publishes the checkpoint atomically; failures are swallowed
// (checkpointing is best-effort — without one the task just re-runs).
// The task's metrics supply the input counters preserved for replay.
func (r *checkpointRecorder) commit(env *exec.Env, stageID string, rank int, m *trace.Task) {
	if r.oversized {
		return
	}
	if r.buf == nil {
		r.take()
	}
	defer r.release()
	meta := checkpointMeta{InputBytes: m.InputBytes, InputRecords: m.InputRecords}
	path := checkpointPath(stageID, rank)
	tmp := path + ".tmp"
	// The header goes right-aligned into the reserved room.
	var hdr [ckptHeaderRoom]byte
	h := binary.AppendUvarint(hdr[:0], uint64(meta.InputBytes))
	h = binary.AppendUvarint(h, uint64(meta.InputRecords))
	off := ckptHeaderRoom - len(h)
	data := (*r.buf)[off:]
	copy(data, h)
	if err := env.FS.WriteFile(tmp, data); err != nil {
		env.FS.Delete(tmp)
		return
	}
	if err := env.FS.Rename(tmp, path); err == nil {
		env.Metrics.Counter(metrics.CtrCheckpointCommits).Inc()
		env.Metrics.Counter(metrics.CtrCheckpointBytes).Add(int64(len(data)))
	}
}

// readCheckpoint loads rank's committed checkpoint, if one exists and
// decodes cleanly. The returned pairs alias the loaded buffer.
func readCheckpoint(env *exec.Env, stageID string, rank int) (checkpointMeta, []kvio.KV, bool) {
	data, err := env.FS.ReadFile(checkpointPath(stageID, rank))
	if err != nil {
		return checkpointMeta{}, nil, false
	}
	var meta checkpointMeta
	ib, n := binary.Uvarint(data)
	if n <= 0 {
		return checkpointMeta{}, nil, false
	}
	data = data[n:]
	ir, n := binary.Uvarint(data)
	if n <= 0 {
		return checkpointMeta{}, nil, false
	}
	data = data[n:]
	meta.InputBytes, meta.InputRecords = int64(ib), int64(ir)
	pairs, err := kvio.DecodeAll(data)
	if err != nil {
		return checkpointMeta{}, nil, false
	}
	return meta, pairs, true
}
