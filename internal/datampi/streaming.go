package datampi

import (
	"encoding/binary"
	"fmt"
)

// Streaming mode (paper §II): records arrive continuously; the O side
// assigns each pair to a window and the A side emits one grouped result
// set per closed window. Windows close in order — when every O task has
// advanced past window w, the A tasks fire their per-window callbacks.
//
// The implementation layers windows onto the common mode by prefixing
// keys with a big-endian window ordinal: the existing sorted grouping
// then yields windows in order, and the per-window boundary falls out
// of the key prefix changing.

// StreamSource feeds one O task: it returns the next (window, key,
// value) triple, or done=true when the stream ends.
type StreamSource func(o *OContext) (window uint32, key, value []byte, done bool, err error)

// WindowResult delivers one key group of one closed window to the
// application. key and values are valid only during the call.
type WindowResult func(window uint32, key []byte, values [][]byte) error

// RunStreaming consumes the sources until exhaustion and delivers every
// window's groups in (window, key) order.
func RunStreaming(cfg Config, source StreamSource, result WindowResult) error {
	if err := cfg.fill(); err != nil {
		return err
	}
	// Partition on the user key only (strip the window prefix) so one
	// key's windows always land on the same A task.
	user := cfg.Partitioner
	cfg.Partitioner = func(key []byte, numA int) int {
		if len(key) >= 4 {
			return user(key[4:], numA)
		}
		return user(key, numA)
	}
	job, err := NewJob(cfg)
	if err != nil {
		return err
	}
	return job.Run(
		func(o *OContext) error {
			for {
				w, key, value, done, err := source(o)
				if err != nil {
					return err
				}
				if done {
					return nil
				}
				wk := make([]byte, 4, 4+len(key))
				binary.BigEndian.PutUint32(wk, w)
				wk = append(wk, key...)
				if err := o.Send(wk, value); err != nil {
					return err
				}
			}
		},
		func(a *AContext) error {
			for {
				key, vals, err := a.NextGroup()
				if err != nil {
					return nil // io.EOF
				}
				if len(key) < 4 {
					return fmt.Errorf("datampi: streaming key shorter than window prefix")
				}
				w := binary.BigEndian.Uint32(key[:4])
				if err := result(w, key[4:], vals); err != nil {
					return err
				}
			}
		})
}
