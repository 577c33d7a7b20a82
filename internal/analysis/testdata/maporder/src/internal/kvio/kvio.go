// Fixture stub of the kvio surface the maporder sink/sanitizer tables
// reference: the wire encoder (AppendKV), the canonicalizing Sort, and
// the in-memory sorted run (Run) with its run writer.
package kvio

// KV is one key/value record.
type KV struct{ Key, Val []byte }

// AppendKV encodes one record onto dst (order-sensitive sink).
func AppendKV(dst, k, v []byte) []byte {
	return append(append(dst, k...), v...)
}

// Sort canonicalizes record order (sanitizer).
func Sort(kvs []KV) {}

// Run is the in-memory sorted run: appends carry order into it, Sort
// canonicalizes it, and its writer is the run writer (order-sensitive
// sink).
type Run struct {
	arena []byte
	index []RunEntry
	out   []byte
}

// RunEntry locates one pair in the arena.
type RunEntry struct{ off, n int }

func (r *Run) AppendBlock(block []byte) (int, error) {
	r.index = append(r.index, RunEntry{len(r.arena), len(block)})
	r.arena = append(r.arena, block...)
	return 1, nil
}

func (r *Run) Sort(cmp func(x, y RunEntry) int) {}

func (r *Run) ByKeyValue(x, y RunEntry) int { return x.off - y.off }

func (r *Run) Entries() []RunEntry { return r.index }

// Wire cuts one pair's bytes out of the arena.
func (r *Run) Wire(e RunEntry) []byte { return r.arena[e.off : e.off+e.n] }

func (r *Run) Write(p []byte) error {
	r.out = append(r.out, p...)
	return nil
}
