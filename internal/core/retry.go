package core

import (
	"hivempi/internal/exec"
	"hivempi/internal/metrics"
	"hivempi/internal/trace"
	"hivempi/internal/types"
)

// Stage retry: the DataMPI engine's fault tolerance. An MPI job cannot
// re-execute one task, so a failed attempt relaunches the whole stage
// as a fresh bipartite world, and O tasks that committed a checkpoint
// (checkpoint.go) replay it instead of re-running their split.

// retryBackoffBase is the first virtual-time retry delay; subsequent
// attempts back off exponentially (2s, 4s, 8s, ...).
const retryBackoffBase = 2.0

// runWithRetries executes attempts of one stage until success or the
// conf.MaxTaskAttempts budget is spent. Every attempt builds a fresh
// row collector (partial rows from failed attempts are discarded) and
// the stage sink is wiped between attempts; recovery costs —
// exponential backoff and injected message delay — are recorded on the
// stage trace for the perfmodel to charge.
func (e *Engine) runWithRetries(env *exec.Env, stage *exec.Stage, conf exec.EngineConf,
	run func(attempt int) (*trace.Stage, []types.Row, error)) (*exec.StageResult, error) {
	attempts := conf.MaxTaskAttempts
	if attempts < 1 {
		attempts = 1
	}
	var backoff, chaosDelay float64
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		st, rows, err := run(attempt)
		chaosDelay += env.Chaos.DrainVirtualDelay()
		if err == nil {
			st.Attempts = attempt
			st.RetryBackoffSec = backoff
			st.ChaosDelaySec = chaosDelay
			// Fold exactly once per successful stage — failed attempts'
			// partial traces are discarded with their rows.
			metrics.FoldStage(env.Metrics, st)
			return &exec.StageResult{Trace: st, Rows: rows}, nil
		}
		lastErr = err
		// Wipe partial sink output so the retry (or a driver-level
		// engine fallback) starts from a clean slate.
		resetStageSink(env, stage)
		if attempt < attempts {
			backoff += retryBackoffBase * float64(int(1)<<(attempt-1))
		}
	}
	return nil, lastErr
}

// resetStageSink removes the stage's partial output files; only this
// stage writes under its sink directory.
func resetStageSink(env *exec.Env, stage *exec.Stage) {
	if stage.Sink != nil && stage.Sink.Dir != "" {
		env.FS.DeleteDir(stage.Sink.Dir)
	}
}
